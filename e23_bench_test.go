// E23: hierarchical federation ablation. The same synthetic monitoring
// round — every node reporting one changed value — is driven into (a) a
// 3-tier federated tree whose uplinks forward change-only deltas as
// batched v2 frames, and (b) a flat single master ingesting every node
// directly, on identical virtual fabrics. The propagation metric is the
// virtual time from injecting a round at the leaves until the TOP of
// the tree has applied every node's change; the wire metric is bytes
// arriving at the top tier's monitoring endpoint per node per round.
// EXPERIMENTS.md requires the federated tree to beat the flat master on
// propagation latency at 100k nodes (the flat master's 100 Mb/s link
// serializes ~13 MB of per-node frames, over a second of fan-in queue,
// while each federation tier ingests in parallel and forwards a few
// batched bytes per node), and the batched uplink to cut bytes/node by
// an order of magnitude against per-node frames of either wire version.
package clusterworx

import (
	"testing"
	"time"

	"clusterworx/internal/core"
	"clusterworx/internal/transmit"
)

const e23Period = 100 * time.Millisecond

// benchFedPropagation measures one topology. Each benchmark iteration
// is one monitoring round: inject at a period boundary, then step the
// virtual clock event by event until the root has applied every node's
// change, and charge the virtual latency and top-link bytes.
func benchFedPropagation(b *testing.B, fanout, tiers, perLeaf int) {
	fed, err := core.NewSim(core.SimConfig{
		Fanout: fanout, Tiers: tiers, Nodes: perLeaf,
		Synthetic: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	total := int64(fed.TotalNodes())
	// Propagation counter at the top: raw-node sub-frames applied from
	// child uplinks, or — for the flat control, which has no uplinks —
	// monitoring packets delivered (one per node frame).
	applied := func() int64 {
		if tiers > 1 {
			return fed.Root.Server.UplinkInStats().RawNodes
		}
		return fed.Root.RxPackets()
	}
	step := func(target int64, guard time.Duration) {
		for applied() < target && fed.Clk.Now() < guard {
			if !fed.Clk.Step() {
				break
			}
		}
		if got := applied(); got < target {
			b.Fatalf("round never converged: %d/%d applied at %v", got, target, fed.Clk.Now())
		}
	}

	// Warm: the registration round (sequenced snapshots, dictionary
	// interning, first snap-all flush up every hop), then settle.
	fed.InjectRound()
	step(total, fed.Clk.Now()+20*e23Period)
	fed.Advance(e23Period - fed.Clk.Now()%e23Period)

	var lat time.Duration
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := fed.Clk.Now()
		startRx := fed.Root.Mon.Stats().RxBytes
		target := applied() + total
		fed.InjectRound()
		step(target, start+50*e23Period)
		lat += fed.Clk.Now() - start
		bytes += fed.Root.Mon.Stats().RxBytes - startRx
		// Run out the rest of the period so every round starts aligned.
		fed.Advance(e23Period - fed.Clk.Now()%e23Period)
	}
	b.StopTimer()
	b.ReportMetric(float64(lat.Microseconds())/float64(b.N)/1e3, "vms/round")
	b.ReportMetric(float64(bytes)/float64(b.N)/float64(total), "topB/node")
}

// BenchmarkE23FedPropagation100k: 100 leaves x 1000 nodes under 10 mids.
func BenchmarkE23FedPropagation100k(b *testing.B) {
	benchFedPropagation(b, 10, 3, 1000)
}

// BenchmarkE23FlatPropagation100k: the ablation — one master, 100k nodes.
func BenchmarkE23FlatPropagation100k(b *testing.B) {
	benchFedPropagation(b, 0, 1, 100000)
}

// Small variants for the bench-smoke gate: same shapes, 256 nodes.
func BenchmarkE23FedPropagationSmall(b *testing.B) {
	benchFedPropagation(b, 4, 3, 16)
}

func BenchmarkE23FlatPropagationSmall(b *testing.B) {
	benchFedPropagation(b, 0, 1, 256)
}

// benchE23Nodes builds one uplink flush's worth of per-node delta
// sub-frames (the shape Uplink.build assembles).
func benchE23Nodes(n int) []transmit.Frame {
	names := ingestNodeNames()
	deltas := ingestDeltaSets()
	frames := make([]transmit.Frame, n)
	for i := range frames {
		frames[i] = transmit.Frame{
			Node: names[i%len(names)], Kind: transmit.FrameDelta,
			Values: deltas[i%len(deltas)],
		}
	}
	return frames
}

// BenchmarkE23UplinkEncodeBatched: 512 node sections in ONE batch frame
// sharing a dictionary, predictor chain, and timestamp column.
func BenchmarkE23UplinkEncodeBatched(b *testing.B) {
	frames := benchE23Nodes(512)
	enc := transmit.NewBatchEncoderV2()
	buf := enc.Encode(nil, 1, 0, frames)
	enc.Ack(enc.TableLen())
	var wire int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.Encode(buf[:0], uint64(i)+2, int64(i)*100_000_000, frames)
		wire += int64(len(buf))
	}
	b.StopTimer()
	b.ReportMetric(float64(wire)/float64(b.N)/float64(len(frames)), "wireB/node")
}

// BenchmarkE23UplinkEncodePerNodeV2 is the unbatched ablation: the same
// 512 sub-frames as individual v2 frames over one session (shared
// dictionary, per-frame headers and timestamp streams).
func BenchmarkE23UplinkEncodePerNodeV2(b *testing.B) {
	frames := benchE23Nodes(512)
	enc := transmit.NewEncoderV2()
	var buf []byte
	seq := uint64(0)
	for i := range frames {
		f := frames[i]
		seq++
		f.Seq = seq
		buf = enc.Encode(buf[:0], f)
	}
	enc.Ack(enc.TableLen())
	var wire int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var round int64
		for j := range frames {
			f := frames[j]
			seq++
			f.Seq = seq
			f.SentNs = int64(i) * 100_000_000
			buf = enc.Encode(buf[:0], f)
			round += int64(len(buf))
		}
		wire += round
	}
	b.StopTimer()
	b.ReportMetric(float64(wire)/float64(b.N)/float64(len(frames)), "wireB/node")
}

// BenchmarkE23UplinkEncodePerNodeV1 is the flat master's wire: classic
// per-node v1 text frames, what every agent ships today.
func BenchmarkE23UplinkEncodePerNodeV1(b *testing.B) {
	frames := benchE23Nodes(512)
	var buf []byte
	seq := uint64(0)
	var wire int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var round int64
		for j := range frames {
			f := frames[j]
			seq++
			f.Seq = seq
			f.SentNs = int64(i) * 100_000_000
			buf = transmit.MarshalFrame(buf[:0], f)
			round += int64(len(buf))
		}
		wire += round
	}
	b.StopTimer()
	b.ReportMetric(float64(wire)/float64(b.N)/float64(len(frames)), "wireB/node")
}
