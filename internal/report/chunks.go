package report

// Chunks is an append-only sequence stored as a chain of slices. An append
// past the reserved capacity starts a new chunk instead of copying every
// element appended so far, so a sequence presized to its expected length
// and then overrun (the simulator's per-request logs, when restarts add
// requests) costs only the overflow, never a doubled copy of the whole.
// The zero value is an empty sequence.
type Chunks[T any] struct {
	done [][]T // full chunks, in append order
	cur  []T   // the chunk being filled
	n    int   // elements in done
}

// chunkMin is the smallest overflow chunk.
const chunkMin = 64

// Grow ensures room for at least n further elements without allocating:
// when the current chunk lacks it, the current chunk is sealed and an
// n-element one started.
func (c *Chunks[T]) Grow(n int) {
	if n <= 0 || cap(c.cur)-len(c.cur) >= n {
		return
	}
	c.seal(n)
}

// Append adds x at the end.
//
//optcc:hotpath
func (c *Chunks[T]) Append(x T) {
	if len(c.cur) == cap(c.cur) {
		//cclint:ignore hotpath overflow beyond the presized reservation; restarts pay it, the steady state never does
		c.seal(max(chunkMin, c.Len()/8))
	}
	//cclint:ignore hotpath capacity checked above: this append never grows
	c.cur = append(c.cur, x)
}

// seal retires the current chunk, if it holds anything, and starts an
// empty one of capacity size. Sizing overflow chunks at an eighth of the
// length so far keeps their count logarithmic in the length and their
// unused tail under an eighth of it.
func (c *Chunks[T]) seal(size int) {
	if len(c.cur) > 0 {
		c.done = append(c.done, c.cur)
		c.n += len(c.cur)
	}
	c.cur = make([]T, 0, size)
}

// Len returns the number of elements.
func (c *Chunks[T]) Len() int { return c.n + len(c.cur) }

// Each calls fn on every element in append order.
func (c *Chunks[T]) Each(fn func(T)) {
	for _, ch := range c.done {
		for _, x := range ch {
			fn(x)
		}
	}
	for _, x := range c.cur {
		fn(x)
	}
}

// Flat returns every element as one slice, which aliases the sequence's
// storage: a single chunk is returned as is; several are concatenated once
// into a new slice that replaces them.
func (c *Chunks[T]) Flat() []T {
	if len(c.done) == 0 {
		return c.cur
	}
	flat := make([]T, 0, c.Len())
	for _, ch := range c.done {
		flat = append(flat, ch...)
	}
	flat = append(flat, c.cur...)
	c.done, c.n, c.cur = nil, 0, flat
	return flat
}
