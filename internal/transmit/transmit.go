// Package transmit implements the transmission stage of the monitoring
// pipeline (paper §5.3.3): monitored data stays in human-readable text
// form for platform independence, and is compressed on the wire because
// "data compression techniques ... are known to be very effective on text
// input".
//
// The wire unit is a frame: a 6-byte header (magic, flags, big-endian
// length) followed by the payload, deflate-compressed when that helps.
package transmit

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/telemetry"
)

// Self-monitoring series for the transmission stage.
var (
	mFramesWritten = telemetry.Default().Counter("cwx_transmit_frames_written_total")
	mFramesComp    = telemetry.Default().Counter("cwx_transmit_frames_compressed_total")
	mFramesRead    = telemetry.Default().Counter("cwx_transmit_frames_read_total")
	mRawBytes      = telemetry.Default().Counter("cwx_transmit_raw_bytes_total")
	mWireBytes     = telemetry.Default().Counter("cwx_transmit_wire_bytes_total")
	mFrameBytes    = telemetry.Default().Histogram("cwx_transmit_frame_bytes")
)

// Frame layout constants.
const (
	frameMagic     = 0xC3 // "ClusterworX v3"
	flagCompressed = 1 << 0

	headerSize = 6

	// MaxFrameSize bounds a frame payload; a monitoring update for even a
	// very large node is a few tens of kB of text.
	MaxFrameSize = 16 << 20
)

// Errors returned by frame decoding.
var (
	ErrBadMagic  = errors.New("transmit: bad frame magic")
	ErrFrameSize = errors.New("transmit: frame exceeds size limit")
)

// deflater is a pooled compression scratch: a flate writer bound to its
// output buffer. Pooled so a management server fronting thousands of agent
// connections shares a few hot compressors instead of holding one (and its
// window state) per connection, and so the per-frame hot path allocates
// nothing.
type deflater struct {
	buf  bytes.Buffer
	comp *flate.Writer
}

var deflaterPool = sync.Pool{
	New: func() any {
		d := &deflater{}
		// BestSpeed: monitoring updates are latency-sensitive and highly
		// redundant text; even the fastest level compresses them well.
		d.comp, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
		return d
	},
}

// compressInto deflates p through d's compressor into w (normally d.buf,
// rebound for tests). On error the compressor's internal state is
// undefined mid-stream — see releaseDeflater.
func (d *deflater) compressInto(w io.Writer, p []byte) error {
	d.comp.Reset(w)
	if _, err := d.comp.Write(p); err != nil {
		return err
	}
	return d.comp.Close()
}

// releaseDeflater returns d to the pool only if its last frame
// compressed cleanly. A flate.Writer that errored mid-frame holds
// poisoned stream state; re-pooling it would hand the next frame a
// compressor that keeps failing (or worse, emits garbage). Dropping it
// costs one re-allocation on a path that is already failing.
func releaseDeflater(d *deflater, err error) {
	if err != nil {
		return
	}
	deflaterPool.Put(d)
}

// inflaterPool pools flate decompressors for the read side; flate readers
// carry a sizable window that is expensive to allocate per frame.
var inflaterPool = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// Writer frames and optionally compresses payloads onto an io.Writer.
// Not safe for concurrent use.
type Writer struct {
	w        io.Writer
	compress bool
	hdr      [headerSize]byte

	rawBytes  int64
	wireBytes int64
}

// NewWriter returns a framing writer. With compress true, a payload is
// sent compressed only when its deflate output is strictly smaller than
// the input; whenever deflate output ≥ input (incompressible or tiny
// payloads) the raw fallback path is taken, so compression can never
// inflate the stream beyond the fixed frame header.
func NewWriter(w io.Writer, compress bool) *Writer {
	return &Writer{w: w, compress: compress}
}

// WriteFrame sends one payload.
//
//cwx:hotpath
func (t *Writer) WriteFrame(p []byte) error {
	if len(p) > MaxFrameSize {
		return ErrFrameSize
	}
	body := p
	flags := byte(0)
	if t.compress {
		d := deflaterPool.Get().(*deflater)
		d.buf.Reset()
		err := d.compressInto(&d.buf, p)
		// An errored compressor is dropped, never re-pooled: its flate
		// stream state is poisoned mid-frame (regression-tested in
		// TestDeflaterPoolDropsPoisoned).
		defer releaseDeflater(d, err)
		if err != nil {
			return fmt.Errorf("transmit: compress: %w", err)
		}
		// Raw fallback: ship the original bytes whenever deflate did not
		// strictly shrink them (see NewWriter).
		if d.buf.Len() < len(p) {
			body = d.buf.Bytes()
			flags |= flagCompressed
		}
	}
	return t.emit(p, body, flags)
}

// WriteFrameRaw sends one payload skipping the deflate attempt. The v2
// binary frames are already dictionary- and bit-coded — deflate rarely
// shrinks them further and always costs the compression pass, so their
// send path declares the payload incompressible up front.
//
//cwx:hotpath
func (t *Writer) WriteFrameRaw(p []byte) error {
	if len(p) > MaxFrameSize {
		return ErrFrameSize
	}
	return t.emit(p, p, 0)
}

// emit writes the frame header and body and books the byte accounting;
// body either aliases p or holds its deflated form.
//
//cwx:hotpath
func (t *Writer) emit(p, body []byte, flags byte) error {
	t.rawBytes += int64(len(p))
	t.hdr[0] = frameMagic
	t.hdr[1] = flags
	binary.BigEndian.PutUint32(t.hdr[2:], uint32(len(body)))
	if _, err := t.w.Write(t.hdr[:]); err != nil {
		return err
	}
	if _, err := t.w.Write(body); err != nil {
		return err
	}
	t.wireBytes += int64(headerSize + len(body))
	mFramesWritten.Inc()
	if flags&flagCompressed != 0 {
		mFramesComp.Inc()
	}
	mRawBytes.Add(int64(len(p)))
	mWireBytes.Add(int64(headerSize + len(body)))
	mFrameBytes.Observe(int64(len(body)))
	return nil
}

// RawBytes returns the total payload bytes accepted so far.
func (t *Writer) RawBytes() int64 { return t.rawBytes }

// WireBytes returns the total bytes emitted, headers included.
func (t *Writer) WireBytes() int64 { return t.wireBytes }

// Reader decodes frames from an io.Reader. Not safe for concurrent use.
type Reader struct {
	r    *bufio.Reader
	br   bytes.Reader
	hdr  [headerSize]byte // header scratch: a local would escape through io.ReadFull
	buf  []byte           // wire body scratch
	dbuf []byte           // decompressed payload scratch
}

// NewReader returns a framing reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ReadFrame returns the next payload, decompressed if needed. The returned
// slice is valid until the next call.
//
//cwx:hotpath
func (t *Reader) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(t.r, t.hdr[:]); err != nil {
		return nil, err
	}
	if t.hdr[0] != frameMagic {
		return nil, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(t.hdr[2:])
	if n > MaxFrameSize {
		return nil, ErrFrameSize
	}
	if cap(t.buf) < int(n) {
		t.buf = make([]byte, n) //cwx:allow staticalloc -- amortized receiver-owned buffer growth: escapes by design, then reused for every following frame (0 allocs steady state per the E22 gate)
	}
	body := t.buf[:n]
	if _, err := io.ReadFull(t.r, body); err != nil {
		return nil, err
	}
	if t.hdr[1]&flagCompressed == 0 {
		mFramesRead.Inc()
		return body, nil
	}
	fr := inflaterPool.Get().(io.ReadCloser)
	defer inflaterPool.Put(fr)
	t.br.Reset(body)
	if err := fr.(flate.Resetter).Reset(&t.br, nil); err != nil {
		return nil, fmt.Errorf("transmit: decompress: %w", err)
	}
	out, err := readAllInto(t.dbuf[:0], fr)
	if err != nil {
		return nil, fmt.Errorf("transmit: decompress: %w", err)
	}
	t.dbuf = out
	mFramesRead.Inc()
	return out, nil
}

// readAllInto is io.ReadAll growing dst in place, so the Reader's
// decompression scratch is reused across frames.
//
//cwx:hotpath
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// --- value marshalling -------------------------------------------------------
//
// One line per value: "<name> <S|D> <n|t> <payload>\n". Text payloads are
// quoted with strconv so embedded whitespace survives.

// MarshalValues renders a value batch into the wire text form, appending
// to dst.
//
//cwx:hotpath
func MarshalValues(dst []byte, values []consolidate.Value) []byte {
	for _, v := range values {
		dst = append(dst, v.Name...)
		dst = append(dst, ' ')
		if v.Kind == consolidate.Static {
			dst = append(dst, 'S')
		} else {
			dst = append(dst, 'D')
		}
		dst = append(dst, ' ')
		if v.IsText {
			dst = append(dst, 't', ' ')
			dst = strconv.AppendQuote(dst, v.Text)
		} else {
			dst = append(dst, 'n', ' ')
			dst = strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// UnmarshalValues parses the wire text form.
func UnmarshalValues(data []byte) ([]consolidate.Value, error) {
	var out []consolidate.Value
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		v, err := unmarshalLine(string(line))
		if err != nil {
			return nil, fmt.Errorf("transmit: line %d: %w", lineNo, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func unmarshalLine(line string) (consolidate.Value, error) {
	var v consolidate.Value
	parts := strings.SplitN(line, " ", 4)
	if len(parts) != 4 {
		return v, fmt.Errorf("malformed value line %q", line)
	}
	v.Name = parts[0]
	switch parts[1] {
	case "S":
		v.Kind = consolidate.Static
	case "D":
		v.Kind = consolidate.Dynamic
	default:
		return v, fmt.Errorf("bad kind %q", parts[1])
	}
	switch parts[2] {
	case "t":
		s, err := strconv.Unquote(parts[3])
		if err != nil {
			return v, fmt.Errorf("bad text payload %q: %v", parts[3], err)
		}
		v.IsText = true
		v.Text = s
	case "n":
		n, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return v, fmt.Errorf("bad numeric payload %q: %v", parts[3], err)
		}
		v.Num = n
	default:
		return v, fmt.Errorf("bad payload tag %q", parts[2])
	}
	return v, nil
}

// CompressedSize reports how many bytes p deflates to, for the E6
// compression-effectiveness experiment. Returns -1 if compression fails
// (the deflater is then dropped, like any other poisoned compressor).
func CompressedSize(p []byte) int {
	d := deflaterPool.Get().(*deflater)
	d.buf.Reset()
	err := d.compressInto(&d.buf, p)
	defer releaseDeflater(d, err)
	if err != nil {
		return -1
	}
	return d.buf.Len()
}

// Pipe returns a connected in-process frame transport, for tests and the
// in-process simulation: frames written to one end arrive at the other.
func Pipe(compress bool) (*Writer, *Reader, func() error) {
	pr, pw := io.Pipe()
	w := NewWriter(&syncWriter{w: pw}, compress)
	r := NewReader(pr)
	return w, r, pw.Close
}

// syncWriter serializes writes; io.Pipe is already safe but the Writer's
// two-write frame emission must not interleave with another writer.
type syncWriter struct {
	mu sync.Mutex //cwx:lockrank syncwriter 62
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
