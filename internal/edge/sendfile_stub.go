//go:build !unix

package edge

// sendfileSupported disables the file-section serve path on platforms
// where net/http has no zero-copy ReadFrom fast path we can rely on;
// every hit takes the borrow/copy path instead (byte-identical
// responses, just one more userspace copy).
const sendfileSupported = false
