package telemetry

import "testing"

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	if v, tr := h.Exemplar(); v != 0 || tr != 0 {
		t.Fatalf("fresh histogram exemplar = %d/%x", v, tr)
	}
	h.ObserveTraceAt(0, 100, 0) // untraced: counted, no exemplar
	if _, tr := h.Exemplar(); tr != 0 {
		t.Fatal("untraced observation set an exemplar")
	}
	h.ObserveTraceAt(0, 50, 0xaaaa)
	h.ObserveTraceAt(1, 500, 0xbbbb)
	h.ObserveTraceAt(2, 200, 0xcccc) // smaller than current max: ignored
	v, tr := h.Exemplar()
	if v != 500 || tr != 0xbbbb {
		t.Fatalf("exemplar = %d/%x, want 500/bbbb", v, tr)
	}
	if s := h.Snapshot(); s.Count != 4 {
		t.Fatalf("observations not all counted: %d", s.Count)
	}
}
