// E22: wire-protocol ablation. The same steady-state agent stream —
// snapshot once, then numeric delta frames on a 15 s cadence — is driven
// through the full roundtrip (marshal, frame onto the wire, read back,
// decode, sequenced ingest) in both wire formats: v1 text + deflate, and
// the negotiated v2 binary columnar form (dictionary names,
// delta-of-delta timestamps, XOR-or-decimal coded values). EXPERIMENTS.md
// requires v2 to win on bytes/frame AND ns/frame with zero steady-state
// allocations; the "wireB/frame" metric is the on-wire cost including
// the 6-byte frame header.
package clusterworx

import (
	"bytes"
	"testing"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/transmit"
)

// benchE22Frame builds the steady-state delta frame for iteration seq.
func benchE22Frame(deltas [][]consolidate.Value, seq uint64) transmit.Frame {
	return transmit.Frame{
		Node: "fnode0001", Seq: seq, Kind: transmit.FrameDelta,
		Values: deltas[int(seq)%len(deltas)],
		SentNs: int64(seq) * 15_000_000_000,
	}
}

// BenchmarkE22WireV1Deflate is the baseline: text marshal, deflate,
// frame, inflate, text parse, ingest.
func BenchmarkE22WireV1Deflate(b *testing.B) {
	srv := core.NewServer(core.ServerConfig{Cluster: "bench"})
	deltas := ingestDeltaSets()
	var wire bytes.Buffer
	w := transmit.NewWriter(&wire, true)
	r := transmit.NewReader(&wire)
	var buf []byte
	roundtrip := func(f transmit.Frame) {
		buf = transmit.MarshalFrame(buf[:0], f)
		if err := w.WriteFrame(buf); err != nil {
			b.Fatal(err)
		}
		payload, err := r.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		pf, err := transmit.ParseFrame(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.HandleFrame(pf); err != nil {
			b.Fatal(err)
		}
	}
	roundtrip(transmit.Frame{Node: "fnode0001", Seq: 1, Kind: transmit.FrameSnapshot, Values: ingestFullSet()})
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	start := w.WireBytes()
	for n := 0; n < b.N; n++ {
		seq++
		roundtrip(benchE22Frame(deltas, seq))
	}
	b.StopTimer()
	b.ReportMetric(float64(w.WireBytes()-start)/float64(b.N), "wireB/frame")
}

// BenchmarkE22WireV2 is the negotiated binary path: dictionary +
// bit-column encode, raw frame, binary decode, ingest.
func BenchmarkE22WireV2(b *testing.B) {
	srv := core.NewServer(core.ServerConfig{Cluster: "bench"})
	deltas := ingestDeltaSets()
	enc := transmit.NewEncoderV2()
	dec := transmit.NewDecoderV2()
	var wire bytes.Buffer
	w := transmit.NewWriter(&wire, false)
	r := transmit.NewReader(&wire)
	var buf []byte
	roundtrip := func(f transmit.Frame) {
		buf = enc.Encode(buf[:0], f)
		if err := w.WriteFrameRaw(buf); err != nil {
			b.Fatal(err)
		}
		payload, err := r.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		df, err := dec.Decode(payload)
		if err != nil {
			b.Fatal(err)
		}
		if n, ok := dec.PendingAck(); ok {
			enc.Ack(n)
		}
		if err := srv.HandleFrame(df); err != nil {
			b.Fatal(err)
		}
	}
	roundtrip(transmit.Frame{Node: "fnode0001", Seq: 1, Kind: transmit.FrameSnapshot, Values: ingestFullSet()})
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	start := w.WireBytes()
	for n := 0; n < b.N; n++ {
		seq++
		roundtrip(benchE22Frame(deltas, seq))
	}
	b.StopTimer()
	b.ReportMetric(float64(w.WireBytes()-start)/float64(b.N), "wireB/frame")
}
