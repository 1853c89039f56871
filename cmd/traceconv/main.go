// Command traceconv converts between trace formats: CSV access logs
// (header-driven column mapping) in, and the two trace formats — the
// line-oriented text file and the columnar trace directory — in and
// out.
//
// Usage:
//
//	traceconv -in logs.csv -in-format csv -out eu.trace -out-format text
//
//	# move a text trace into a columnar directory
//	traceconv -in eu.trace -in-format text -out eu.tracedir -out-format columnar
//
//	# export a columnar directory back to text
//	traceconv -in eu.tracedir -in-format columnar -out eu.txt -out-format text
//
// A trace named by -in opens with trace.Open, which tells a directory
// from a text file whatever -in-format says. Directories and text read
// from stdin stream request by request; a text file or CSV log is read
// into memory first (CSV import rebases timestamps to t=0 and needs the
// whole log to find the base).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"videocdn/internal/trace"
)

func main() {
	in := flag.String("in", "", "input file, or directory for columnar (default stdin)")
	out := flag.String("out", "", "output file, or directory for columnar (default stdout)")
	inFormat := flag.String("in-format", "csv", "input format: csv, text or columnar")
	outFormat := flag.String("out-format", "text", "output format: text or columnar")
	sep := flag.String("csv-sep", ",", "CSV field separator")
	noRebase := flag.Bool("no-rebase", false, "keep absolute CSV timestamps instead of rebasing to t=0")
	flag.Parse()

	cur, err := openInput(*in, *inFormat, *sep, *noRebase)
	if err != nil {
		fatal(err)
	}
	defer cur.Close()

	w, finishOut, err := openWriter(*out, *outFormat)
	if err != nil {
		fatal(err)
	}

	count := 0
	var req trace.Request
	for {
		ok, err := cur.Next(&req)
		if err != nil {
			fatal(err)
		}
		if !ok {
			break
		}
		if err := w.Write(req); err != nil {
			fatal(err)
		}
		count++
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := finishOut(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "converted %d requests\n", count)
}

// openInput returns a cursor over the input in replay order.
func openInput(in, format, sep string, noRebase bool) (trace.Cursor, error) {
	switch format {
	case "csv":
		r := os.Stdin
		if in != "" {
			f, err := os.Open(in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		var comma rune
		for _, c := range sep {
			comma = c
			break
		}
		reqs, err := trace.ImportCSV(r, trace.ImportOptions{Comma: comma, DisableRebase: noRebase})
		if err != nil {
			return nil, err
		}
		return trace.Slice(reqs).Cursor()
	case "text", "columnar":
		if in == "" {
			if format == "columnar" {
				return nil, errors.New("columnar input needs -in <directory>")
			}
			return trace.NewTextReader(os.Stdin), nil
		}
		src, err := trace.Open(in)
		if err != nil {
			return nil, err
		}
		return src.Cursor()
	default:
		return nil, fmt.Errorf("unknown input format %q", format)
	}
}

// openWriter returns a streaming Writer for the output plus a finish
// function that finalizes it (columnar directories write their
// manifest on Close).
func openWriter(out, format string) (trace.Writer, func() error, error) {
	switch format {
	case "columnar":
		if out == "" {
			return nil, nil, errors.New("columnar output needs -out <directory>")
		}
		dw, err := trace.CreateDir(out, trace.DirConfig{})
		if err != nil {
			return nil, nil, err
		}
		return dw, dw.Close, nil
	case "text":
		if out == "" {
			return trace.NewTextWriter(os.Stdout), func() error { return nil }, nil
		}
		f, err := os.Create(out)
		if err != nil {
			return nil, nil, err
		}
		return trace.NewTextWriter(f), f.Close, nil
	default:
		return nil, nil, fmt.Errorf("unknown output format %q", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceconv:", err)
	os.Exit(1)
}
