package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader hands out its data n bytes at a time.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(c.n, len(c.data), len(p))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func TestBlockScanner(t *testing.T) {
	// Three blocks: a plain one, one whose body has dot-stuffed lines (a
	// lone "." and a line starting with ".."), and a one-liner.
	stream := "OK\nn0001 up\nn0002 up\n.\n" +
		"OK console dump follows\n..\n...hidden\nlast\n.\n" +
		"OK pong\n.\n"
	want := []string{
		"OK\nn0001 up\nn0002 up",
		"OK console dump follows\n..\n...hidden\nlast",
		"OK pong",
	}
	readers := map[string]io.Reader{
		"whole":    strings.NewReader(stream),
		"one byte": iotest.OneByteReader(strings.NewReader(stream)),
		"3 bytes":  &chunkReader{data: []byte(stream), n: 3},
		"7 bytes":  &chunkReader{data: []byte(stream), n: 7},
	}
	for name, r := range readers {
		sc := newBlockScanner(r)
		for i, w := range want {
			got, err := sc.Next()
			if err != nil {
				t.Fatalf("%s: block %d: %v", name, i, err)
			}
			if string(got) != w {
				t.Errorf("%s: block %d = %q, want %q", name, i, got, w)
			}
		}
		if _, err := sc.Next(); err != io.EOF {
			t.Errorf("%s: after the last block: %v, want EOF", name, err)
		}
	}
	if got := unstuff([]byte(want[1])); string(got) != "OK console dump follows\n.\n..hidden\nlast" {
		t.Errorf("unstuff = %q", got)
	}
}

func TestBlockScannerGrowsAndCompacts(t *testing.T) {
	big := strings.Repeat("n0001 up values=34 load=1.00\n", 40)
	var stream bytes.Buffer
	for i := 0; i < 50; i++ {
		stream.WriteString("OK\n" + big + ".\n")
	}
	sc := &blockScanner{r: &chunkReader{data: stream.Bytes(), n: 1000}, buf: make([]byte, 64)}
	for i := 0; i < 50; i++ {
		got, err := sc.Next()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if string(got) != "OK\n"+strings.TrimSuffix(big, "\n") {
			t.Fatalf("block %d is %d bytes, want %d", i, len(got), len(big)+2)
		}
	}
}

func TestBlockLine(t *testing.T) {
	push := []byte("UPDATE gen=812\n=bench.round                  41\n=load.1                       3.25")
	if v, ok := blockLine(push, "bench.round"); !ok || string(v) != "41" {
		t.Errorf("update push: %q %v", v, ok)
	}
	full := []byte("OK watch values n0001 gen=9\nbench.m10 12\nbench.round 7\nload.1 1")
	if v, ok := blockLine(full, "bench.round"); !ok || string(v) != "7" {
		t.Errorf("full block: %q %v", v, ok)
	}
	if _, ok := blockLine(full, "bench.r"); ok {
		t.Error("a key prefix matched")
	}
	if _, ok := blockLine(push, "load.5"); ok {
		t.Error("an absent key matched")
	}
}
