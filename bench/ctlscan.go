package bench

import (
	"bytes"
	"io"
)

// blockScanner reads the ctl protocol's dot-terminated blocks from a
// stream by scanning bytes, with no per-line allocation: the query
// workloads' client must cost less than the server it measures. A block
// ends at a line holding a lone "."; body lines that begin with "." arrive
// dot-stuffed ("..") and so never match.
type blockScanner struct {
	r          io.Reader
	buf        []byte
	start, end int // unread bytes are buf[start:end]
}

var blockEnd = []byte("\n.\n")

func newBlockScanner(r io.Reader) *blockScanner {
	return &blockScanner{r: r, buf: make([]byte, 256<<10)}
}

// Next returns the next block without its terminator, still dot-stuffed.
// The slice is valid until the next call.
func (s *blockScanner) Next() ([]byte, error) {
	scanned := s.start
	for {
		// Resume two bytes back: a terminator may straddle two reads.
		from := max(s.start, scanned-len(blockEnd)+1)
		if s.end-s.start >= 2 && s.buf[s.start] == '.' && s.buf[s.start+1] == '\n' {
			s.start += 2 // an empty block
			return s.buf[s.start-2 : s.start-2], nil
		}
		if i := bytes.Index(s.buf[from:s.end], blockEnd); i >= 0 {
			block := s.buf[s.start : from+i]
			s.start = from + i + len(blockEnd)
			return block, nil
		}
		scanned = s.end
		if s.end == len(s.buf) {
			if s.start > 0 {
				n := copy(s.buf, s.buf[s.start:s.end])
				scanned -= s.start
				s.start, s.end = 0, n
			} else {
				s.buf = append(s.buf, make([]byte, len(s.buf))...)
			}
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// unstuff undoes the protocol's dot-stuffing.
func unstuff(block []byte) []byte {
	out := bytes.ReplaceAll(block, []byte("\n.."), []byte("\n."))
	if bytes.HasPrefix(out, []byte("..")) {
		out = out[1:]
	}
	return out
}

// blockLine returns the rest of the first line of block whose first field
// is key, after any leading diff-op character ("=" in an UPDATE push).
func blockLine(block []byte, key string) ([]byte, bool) {
	for len(block) > 0 {
		line := block
		if i := bytes.IndexByte(block, '\n'); i >= 0 {
			line, block = block[:i], block[i+1:]
		} else {
			block = nil
		}
		if len(line) > 0 && line[0] == '=' {
			line = line[1:]
		}
		if len(line) > len(key) && line[len(key)] == ' ' && string(line[:len(key)]) == key {
			return bytes.TrimSpace(line[len(key):]), true
		}
	}
	return nil, false
}
