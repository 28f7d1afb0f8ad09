// Package hotpath is analyzer testdata: every seeded violation carries a
// `// want` expectation the self-test diffs against.
package hotpath

import (
	"fmt"
	"time"
)

//cwx:hotpath
func formats(n int) string {
	return fmt.Sprintf("%d", n) // want `hotpath: fmt.Sprintf allocates on the hot path`
}

//cwx:hotpath
func concats(a, b string) string {
	a += b              // want `hotpath: string concatenation allocates`
	return a + "suffix" // want `hotpath: string concatenation allocates`
}

//cwx:hotpath
func conversions(b []byte, s string) (string, []byte) {
	x := string(b) // want `hotpath: byte slice to string conversion allocates`
	y := []byte(s) // want `hotpath: string to \[\]byte conversion allocates`
	return x, y
}

//cwx:hotpath
func mapKeys(m map[string]int, b []byte) int {
	return m[string(b)] // the compiler reads the key in place: no finding
}

//cwx:hotpath
func literals() int {
	m := map[string]int{} // want `hotpath: map literal allocates`
	s := []int{1, 2, 3}   // want `hotpath: slice literal allocates`
	return len(m) + len(s)
}

//cwx:hotpath
func closures() func() int {
	n := 7
	f := func() int { return n } // want `hotpath: closure capturing "n" allocates`
	g := func() int { return 42 }
	return func() int { return f() + g() } // want `hotpath: closure capturing "f" allocates`
}

//cwx:hotpath
func appends(dst []byte, n int) []byte {
	var bad []int
	bad = append(bad, 1) // want `hotpath: append to bad without preallocated-cap evidence`
	dst = append(dst, 'x')
	sized := make([]byte, 0, n)
	sized = append(sized, 'y')
	scratch := dst[:0]
	scratch = append(scratch, sized...)
	chained := append(dst, 'z')
	chained = append(chained, byte(bad[0]))
	_ = scratch
	return chained
}

//cwx:hotpath
func clocks() time.Duration {
	t0 := time.Now()
	t1 := time.Now() // want `hotpath: more than one time.Now per hot call`
	return t1.Sub(t0)
}

//cwx:hotpath
func suppressed(n int) string {
	return fmt.Sprintf("%d", n) //cwx:allow hotpath -- cold error path, exercised by the self-test
}

// notHot has no directive: nothing in it is checked.
func notHot(n int) string {
	return fmt.Sprintf("%d", n)
}
