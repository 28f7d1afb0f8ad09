package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// Keyed line diffs: the change-only wire format watch streams push.
//
// A watchable rendering is a list of lines where the first
// whitespace-delimited field is a stable key (node name, metric name)
// and surviving keys keep their relative order between generations —
// true for every key-sorted ctl view (status, values, sync, compare,
// selfmon, nodes). Under that contract a diff of three op kinds
// reconstructs the new rendering exactly:
//
//	-<key>          the keyed line disappeared
//	=<line>         the keyed line changed (key embedded as first field)
//	+<idx> <line>   a new keyed line, inserted at index idx of the new list
//
// Ops are applied in that order (all deletions, then replacements, then
// insertions ascending by index). The reconstruction is byte-exact: the
// differential test asserts a watch client's View converges to the
// polled rendering byte for byte.

// LineKey returns a line's diff key: its first whitespace-delimited
// field (the views' renderings lead with the node or metric name).
func LineKey(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' {
			return line[:i]
		}
	}
	return line
}

// Diff appends to dst the keyed ops turning old into cur, each as a
// '\n'-prefixed line: the payload of an UPDATE block, appended straight
// after its header. It appends nothing when the renderings are identical —
// the caller pushes nothing, which is the whole point of change-only
// streams.
func Diff(dst []byte, old, cur []string) []byte {
	if ops, ok := diffSameKeys(dst, old, cur); ok {
		return ops
	}
	return diffByKey(dst, old, cur)
}

// appendOp appends one op line: the '\n', the op's kind and its text.
func appendOp(dst []byte, kind byte, text string) []byte {
	return append(append(dst, '\n', kind), text...)
}

// diffByKey is Diff for any two renderings: keys matched through maps.
func diffByKey(dst []byte, old, cur []string) []byte {
	oldByKey := make(map[string]string, len(old))
	for _, l := range old {
		oldByKey[LineKey(l)] = l
	}
	curKeys := make(map[string]struct{}, len(cur))
	for _, l := range cur {
		curKeys[LineKey(l)] = struct{}{}
	}
	for _, l := range old {
		if _, ok := curKeys[LineKey(l)]; !ok {
			dst = appendOp(dst, '-', LineKey(l))
		}
	}
	for i, l := range cur {
		prev, existed := oldByKey[LineKey(l)]
		switch {
		case !existed:
			dst = append(append(strconv.AppendInt(append(dst, '\n', '+'), int64(i), 10), ' '), l...)
		case prev != l:
			dst = appendOp(dst, '=', l)
		}
	}
	return dst
}

// diffSameKeys is Diff for the push that moved values and not the roster —
// every push but the one after a node or metric came or went: old and cur
// carry the same keys in the same order, so one lockstep walk finds the
// changed lines and no key needs a map. Keys must also strictly ascend,
// which every key-sorted view's do: that is what proves them unique, and
// with unique keys these are the ops the maps would have produced, byte
// for byte. ok is false when the walk cannot tell; ops is then dst as it
// came in.
func diffSameKeys(dst []byte, old, cur []string) (ops []byte, ok bool) {
	if len(old) != len(cur) {
		return dst, false
	}
	ops = dst
	prev := ""
	for i, l := range cur {
		key := LineKey(l)
		if key != LineKey(old[i]) || i > 0 && key <= prev {
			return dst, false
		}
		prev = key
		if l != old[i] {
			ops = appendOp(ops, '=', l)
		}
	}
	return ops, true
}

// View is a watch client's reconstruction of a rendering from an initial
// full snapshot plus a stream of Diff ops.
type View struct {
	lines []string
}

// SetFull replaces the view wholesale (initial snapshot, or a RESYNC
// push after the subscriber's queue overflowed).
func (v *View) SetFull(lines []string) {
	v.lines = append(v.lines[:0], lines...)
}

// Apply applies one UPDATE block's ops in order.
func (v *View) Apply(ops []string) error {
	for _, op := range ops {
		if op == "" {
			continue
		}
		switch op[0] {
		case '-':
			key := op[1:]
			for i, l := range v.lines {
				if LineKey(l) == key {
					v.lines = append(v.lines[:i], v.lines[i+1:]...)
					break
				}
			}
		case '=':
			line := op[1:]
			key := LineKey(line)
			found := false
			for i, l := range v.lines {
				if LineKey(l) == key {
					v.lines[i] = line
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("serve: replace op for unknown key %q", key)
			}
		case '+':
			rest := op[1:]
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				return fmt.Errorf("serve: malformed insert op %q", op)
			}
			idx, err := strconv.Atoi(rest[:sp])
			if err != nil || idx < 0 {
				return fmt.Errorf("serve: bad insert index in %q", op)
			}
			line := rest[sp+1:]
			if idx > len(v.lines) {
				idx = len(v.lines)
			}
			v.lines = append(v.lines, "")
			copy(v.lines[idx+1:], v.lines[idx:])
			v.lines[idx] = line
		default:
			return fmt.Errorf("serve: unknown op %q", op)
		}
	}
	return nil
}

// Lines returns the reconstructed rendering (shared slice; read-only).
func (v *View) Lines() []string { return v.lines }

// Render joins the reconstruction with newlines, matching the polled
// response body below its "OK" line.
func (v *View) Render() string { return strings.Join(v.lines, "\n") }

// Watch block kinds, the first field of each pushed block's header line.
const (
	BlockUpdate  = "UPDATE"  // change-only diff ops follow
	BlockResync  = "RESYNC"  // full rendering follows (continuity was lost)
	BlockRefresh = "REFRESH" // full rendering follows (view is not keyed-diffable)
)

// ParseBlock splits a pushed watch block into its kind, generation, and
// payload lines. The initial response block ("OK watch ...") is reported
// with kind "OK".
func ParseBlock(block string) (kind string, gen uint64, lines []string, err error) {
	all := strings.Split(block, "\n")
	header := all[0]
	fields := strings.Fields(header)
	if len(fields) == 0 {
		return "", 0, nil, fmt.Errorf("serve: empty watch block header")
	}
	kind = fields[0]
	for _, f := range fields[1:] {
		if g, ok := strings.CutPrefix(f, "gen="); ok {
			gen, err = strconv.ParseUint(g, 10, 64)
			if err != nil {
				return "", 0, nil, fmt.Errorf("serve: bad generation in %q", header)
			}
		}
	}
	return kind, gen, all[1:], nil
}
