package httpwire

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The line-at-a-time parser ReadRequest and ReadResponse were until the head
// became one string: a string per line, a map per header block. Kept as the
// reference FuzzHeadEquivalence holds the parser to — same verdict, same
// fields, same bytes taken from the reader.

type oracleMsg struct {
	// a, b, c are the start line's three parts: method, target, proto for a
	// request; proto, code, reason for a response.
	a, b, c string
	header  map[string]string
	body    []byte
}

func oracleReadRequest(br *bufio.Reader) (*oracleMsg, error) {
	line, err := oracleReadLine(br)
	if err != nil {
		return nil, err
	}
	method, rest, ok := strings.Cut(line, " ")
	if !ok {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	target, proto, ok := strings.Cut(rest, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") || method == "" || target == "" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	h, err := oracleReadHeader(br)
	if err != nil {
		return nil, err
	}
	body, err := oracleReadBody(br, h)
	if err != nil {
		return nil, err
	}
	return &oracleMsg{a: method, b: target, c: proto, header: h, body: body}, nil
}

func oracleReadResponse(br *bufio.Reader) (*oracleMsg, error) {
	line, err := oracleReadLine(br)
	if err != nil {
		return nil, err
	}
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	codeStr, reason, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, codeStr)
	}
	h, err := oracleReadHeader(br)
	if err != nil {
		return nil, err
	}
	body, err := oracleReadBody(br, h)
	if err != nil {
		return nil, err
	}
	return &oracleMsg{a: proto, b: strconv.Itoa(code), c: reason, header: h, body: body}, nil
}

func oracleReadLine(br *bufio.Reader) (string, error) {
	chunk, isPrefix, err := br.ReadLine()
	if err != nil {
		return "", err
	}
	if !isPrefix {
		if len(chunk) > MaxHeaderBytes {
			return "", ErrHeaderTooBig
		}
		return string(chunk), nil
	}
	var sb strings.Builder
	sb.Write(chunk)
	for {
		chunk, isPrefix, err = br.ReadLine()
		if err != nil {
			return "", err
		}
		sb.Write(chunk)
		if sb.Len() > MaxHeaderBytes {
			return "", ErrHeaderTooBig
		}
		if !isPrefix {
			return sb.String(), nil
		}
	}
}

func oracleReadHeader(br *bufio.Reader) (map[string]string, error) {
	h := make(map[string]string, 8)
	total := 0
	for i := 0; ; i++ {
		if i > maxHeaderLines {
			return nil, ErrHeaderTooBig
		}
		line, err := oracleReadLine(br)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return nil, ErrHeaderTooBig
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok || k == "" || strings.ContainsAny(k, " \t") {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		h[CanonicalKey(k)] = strings.TrimSpace(v)
	}
}

func oracleReadBody(br *bufio.Reader, h map[string]string) ([]byte, error) {
	cl := h["Content-Length"]
	if cl == "" {
		return nil, nil
	}
	// RFC 9110's 1*DIGIT: ParseUint at base 10 takes no sign, unlike Atoi,
	// which let "+2" and "-0" through.
	n, err := strconv.ParseUint(cl, 10, 63)
	if err != nil {
		return nil, fmt.Errorf("%w: Content-Length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return nil, ErrBodyTooBig
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}
