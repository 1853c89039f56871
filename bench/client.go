package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one persistent HTTP/1.1 connection of the load generator. It
// speaks just enough of the protocol for the edge's three answers
// (200/206 with Content-Length, 302 with Location) and allocates
// nothing per request, so the generator's own cost stays small beside
// the server's on a two-core box.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

// response is what one exchange returned. body aliases the
// connection's buffer until the next exchange.
type response struct {
	status    int
	location  []byte
	body      []byte
	ttfb, lat time.Duration
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// redial replaces a connection a failed exchange left in an unknown
// state.
func (c *conn) redial() error {
	c.close()
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = n.c, n.br
	return nil
}

// requestPath renders the edge's /video query for r.
func requestPath(dst []byte, r request) []byte {
	dst = append(dst, "/video?v="...)
	dst = strconv.AppendUint(dst, uint64(r.video), 10)
	dst = append(dst, "&start="...)
	dst = strconv.AppendInt(dst, r.start, 10)
	dst = append(dst, "&end="...)
	return strconv.AppendInt(dst, r.end, 10)
}

// get performs one GET and reads the whole response.
func (c *conn) get(path []byte) (response, error) {
	var res response
	c.out = append(c.out[:0], "GET "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: edge\r\n\r\n"...)
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	sent := time.Now()
	if _, err := c.c.Write(c.out); err != nil {
		return res, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return res, err
	}
	// "HTTP/1.1 206 Partial Content"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return res, fmt.Errorf("bad status line %q", line)
	}
	if res.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return res, fmt.Errorf("bad status line %q", line)
	}
	length := int64(-1)
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return res, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		switch {
		case hasHeader(line, "content-length:"):
			if length, err = strconv.ParseInt(string(bytes.TrimSpace(line[15:])), 10, 64); err != nil {
				return res, fmt.Errorf("bad Content-Length %q", line)
			}
		case hasHeader(line, "location:"):
			res.location = append(res.location, bytes.TrimSpace(line[9:])...)
		case hasHeader(line, "transfer-encoding:"):
			return res, errors.New("chunked response: the edge always knows its length")
		}
	}
	if length < 0 {
		return res, errors.New("response without Content-Length")
	}
	if int64(cap(c.body)) < length {
		c.body = make([]byte, length)
	}
	res.body = c.body[:length]
	if length > 0 {
		if _, err := c.br.Peek(1); err != nil {
			return res, err
		}
	}
	res.ttfb = time.Since(sent)
	if _, err := io.ReadFull(c.br, res.body); err != nil {
		return res, fmt.Errorf("short body: %w", err)
	}
	res.lat = time.Since(sent)
	return res, nil
}

func hasHeader(line []byte, lowerName string) bool {
	return len(line) >= len(lowerName) && bytes.EqualFold(line[:len(lowerName)], []byte(lowerName))
}
