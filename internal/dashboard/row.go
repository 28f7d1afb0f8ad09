package dashboard

import (
	"strconv"
	"unicode/utf8"
)

// The row renderer: the table views are rebuilt on nearly every request
// of a live cluster, a row per node, so their cells are appended to a
// reused []byte with strconv instead of boxed through fmt.Fprintf. Each
// helper is byte-identical to the fmt verb it stands for
// (TestRowMatchesFmt, FuzzRowMatchesFmt). Widths follow fmt's %*s
// convention: w > 0 pads on the left (%8s), w < 0 on the right (%-8s),
// counted in runes, and a cell wider than |w| is never cut.

// AppendStr appends s as %*s does.
//
//cwx:hotpath
func AppendStr(b []byte, s string, w int) []byte {
	return pad(append(b, s...), len(b), w)
}

// AppendInt appends v as %*d does.
//
//cwx:hotpath
func AppendInt(b []byte, v int64, w int) []byte {
	return pad(strconv.AppendInt(b, v, 10), len(b), w)
}

// AppendUint appends v as %*d does.
//
//cwx:hotpath
func AppendUint(b []byte, v uint64, w int) []byte {
	return pad(strconv.AppendUint(b, v, 10), len(b), w)
}

// AppendFloat appends v as %*.*f does.
//
//cwx:hotpath
func AppendFloat(b []byte, v float64, w, prec int) []byte {
	return pad(strconv.AppendFloat(b, v, 'f', prec, 64), len(b), w)
}

// AppendBar appends a bar of int(cells) '#' cells, clamped to [0, width];
// NaN draws nothing. (strings.Repeat panics on the negative counts that a
// negative, NaN or Inf/Inf reading makes of int(cells).)
//
//cwx:hotpath
func AppendBar(b []byte, cells float64, width int) []byte {
	n := 0
	switch {
	case cells >= float64(width):
		n = width
	case cells > 0:
		n = int(cells)
	}
	for ; n > 0; n-- {
		b = append(b, '#')
	}
	return b
}

// pad brings the cell appended to b since start to |w| runes.
//
//cwx:hotpath
func pad(b []byte, start, w int) []byte {
	fill, end := w, len(b)
	if w < 0 {
		fill = -w
	}
	fill -= utf8.RuneCount(b[start:])
	for i := 0; i < fill; i++ {
		b = append(b, ' ')
	}
	if w > 0 && fill > 0 {
		copy(b[start+fill:], b[start:end])
		for i := start; i < start+fill; i++ {
			b[i] = ' '
		}
	}
	return b
}
