package core

import (
	"cmp"
	"slices"

	"clusterworx/internal/consolidate"
)

// A node's current values are a slab of parallel columns, one slot per
// metric the node holds, sorted by the metric's id in the history store's
// table: the id, a flags byte, and the number. Text values — a handful of
// static strings per node — sit beside the columns in a short list of
// their own, so the hot columns stay 13 bytes a slot. Every function here
// requires the caller to hold rec.mu.

// Slot flags.
const (
	slotText    uint8 = 1 << 0 // the value is text: see nodeRec.texts
	slotDynamic uint8 = 1 << 1 // consolidate.Dynamic, else Static
	slotMarked  uint8 = 1 << 7 // set and cleared within applySnapshotLocked
)

// textSlot is one text value of a node.
type textSlot struct {
	id   uint32
	text string
}

// find returns the slot holding metric id, or where it would go.
//
//cwx:hotpath
func (rec *nodeRec) find(id uint32) (int, bool) {
	return slices.BinarySearch(rec.ids, id)
}

// grow makes room for n more slots, reallocating the columns at exactly
// that size: a node's metric set settles within its first frame or two
// and the record then lives as long as the node, so slack would be
// carried, never used.
func (rec *nodeRec) grow(n int) {
	size := len(rec.ids) + n
	rec.ids = append(make([]uint32, 0, size), rec.ids...)
	rec.flags = append(make([]uint8, 0, size), rec.flags...)
	rec.nums = append(make([]float64, 0, size), rec.nums...)
}

// insert opens an empty slot for id at i. The columns have room.
func (rec *nodeRec) insert(i int, id uint32) {
	rec.ids = slices.Insert(rec.ids, i, id)
	rec.flags = slices.Insert(rec.flags, i, 0)
	rec.nums = slices.Insert(rec.nums, i, 0)
}

// sameAt reports whether slot i holds v's payload, as Value.Equal would.
//
//cwx:hotpath
func (rec *nodeRec) sameAt(i int, v *consolidate.Value) bool {
	if rec.flags[i]&slotText != 0 {
		return v.IsText && rec.text(rec.ids[i]) == v.Text
	}
	return !v.IsText && rec.nums[i] == v.Num
}

// store writes v into slot i, keeping the slot's mark.
//
//cwx:hotpath
func (rec *nodeRec) store(i int, v *consolidate.Value) {
	fl := rec.flags[i] & slotMarked
	if v.Kind == consolidate.Dynamic {
		fl |= slotDynamic
	}
	if v.IsText {
		fl |= slotText
		rec.setText(rec.ids[i], v.Text)
		rec.nums[i] = 0
	} else {
		if rec.flags[i]&slotText != 0 {
			rec.dropText(rec.ids[i])
		}
		rec.nums[i] = v.Num
	}
	rec.flags[i] = fl
}

// load reads slot i back as the value it was stored from, named by the
// metric table's copy of the name.
func (rec *nodeRec) load(i int, name string) consolidate.Value {
	v := consolidate.Value{Name: name, Kind: consolidate.Static, Num: rec.nums[i]}
	if rec.flags[i]&slotDynamic != 0 {
		v.Kind = consolidate.Dynamic
	}
	if rec.flags[i]&slotText != 0 {
		v.IsText, v.Text = true, rec.text(rec.ids[i])
	}
	return v
}

func (rec *nodeRec) textAt(id uint32) (int, bool) {
	return slices.BinarySearchFunc(rec.texts, id, func(t textSlot, id uint32) int { return cmp.Compare(t.id, id) })
}

func (rec *nodeRec) text(id uint32) string {
	if i, ok := rec.textAt(id); ok {
		return rec.texts[i].text
	}
	return ""
}

func (rec *nodeRec) setText(id uint32, text string) {
	i, ok := rec.textAt(id)
	if !ok {
		rec.texts = slices.Insert(rec.texts, i, textSlot{id: id})
	}
	rec.texts[i].text = text
}

func (rec *nodeRec) dropText(id uint32) {
	if i, ok := rec.textAt(id); ok {
		rec.texts = slices.Delete(rec.texts, i, i+1)
	}
}

// sweepUnmarked drops every slot the snapshot being applied did not carry
// (keep excepted) and clears the marks of the rest, compacting the
// columns in place.
func (rec *nodeRec) sweepUnmarked(keep uint32) {
	n := 0
	for i, id := range rec.ids {
		fl := rec.flags[i]
		if fl&slotMarked == 0 && id != keep {
			if fl&slotText != 0 {
				rec.dropText(id)
			}
			continue
		}
		rec.ids[n], rec.flags[n], rec.nums[n] = id, fl&^slotMarked, rec.nums[i]
		n++
	}
	rec.ids, rec.flags, rec.nums = rec.ids[:n], rec.flags[:n], rec.nums[:n]
}
