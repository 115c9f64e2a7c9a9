package monitor

import "encoding/binary"

// List is the one encoding helper for list-shaped model states: a sequence of
// items, each written as its uvarint byte length followed by its bytes, so a
// queue, a stack or a sorted set is a plain string that can be a memo key and
// a checkpoint entry as it stands. The form is injective whatever bytes the
// items hold — ["a", "a,a"] and ["a,a", "a"] are different strings, as a
// comma-joined form would not make them — and an item may itself be a List
// (the map and pipeline models nest them). The empty string is the empty list.
// A List that was not built by these methods panics when read, which the
// search contains as a model error.
type List string

// at decodes the item that starts at byte offset i and returns it with the
// offset of the item after it.
func (l List) at(i int) (item string, next int) {
	var n uint64
	for shift := 0; ; shift += 7 {
		b := l[i]
		i++
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	next = i + int(n)
	return string(l[i:next]), next
}

// with returns l with item written in at byte offset i, which must be an item
// boundary.
func (l List) with(i int, item string) List {
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(item)))
	return l[:i] + List(n[:k]) + List(item) + l[i:]
}

// Append returns l with item added at the back.
func (l List) Append(item string) List { return l.with(len(l), item) }

// Prepend returns l with item added at the front.
func (l List) Prepend(item string) List { return l.with(0, item) }

// PopFront returns the first item and the list after it; ok is false for the
// empty list.
func (l List) PopFront() (item string, rest List, ok bool) {
	if l == "" {
		return "", "", false
	}
	item, next := l.at(0)
	return item, l[next:], true
}

// Insert returns l with item placed in front of the first item that is not
// less than it, so a list built only by Insert stays sorted by less and equal
// contents give equal strings.
func (l List) Insert(item string, less func(a, b string) bool) List {
	i := 0
	for i < len(l) {
		it, next := l.at(i)
		if !less(it, item) {
			break
		}
		i = next
	}
	return l.with(i, item)
}

// Remove returns l without the first item equal to item, and whether there
// was one.
func (l List) Remove(item string) (List, bool) {
	for i := 0; i < len(l); {
		it, next := l.at(i)
		if it == item {
			return l[:i] + l[next:], true
		}
		i = next
	}
	return l, false
}

// Items returns the items in order.
func (l List) Items() (items []string) {
	for item, rest, ok := l.PopFront(); ok; item, rest, ok = rest.PopFront() {
		items = append(items, item)
	}
	return items
}

// Len returns the number of items.
func (l List) Len() (n int) {
	for _, rest, ok := l.PopFront(); ok; _, rest, ok = rest.PopFront() {
		n++
	}
	return n
}
