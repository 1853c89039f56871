//go:build unix

package edge

// sendfileSupported gates the file-section serve path at build time.
// On unix, net/http's ResponseWriter recognizes an *io.LimitedReader
// over an *os.File handed to ReadFrom and moves the bytes with
// sendfile(2) (Linux falls back to splice/copy_file_range as
// appropriate) — the payload never crosses userspace.
const sendfileSupported = true
