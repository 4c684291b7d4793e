package report

import (
	"testing"
)

// TestChunksOverflowKeepsFirstChunk: appending past the presized capacity
// starts a new chunk instead of copying the reserved one, and every view
// (Len, Each, Flat) still sees all elements in append order.
func TestChunksOverflowKeepsFirstChunk(t *testing.T) {
	var c Chunks[int]
	c.Grow(100)
	for i := 0; i < 100; i++ {
		c.Append(i)
	}
	first := &c.cur[0]
	for i := 100; i < 1000; i++ {
		c.Append(i)
	}
	if &c.done[0][0] != first {
		t.Fatal("overflow copied the presized chunk")
	}
	if c.Len() != 1000 {
		t.Fatalf("Len %d, want 1000", c.Len())
	}
	next := 0
	c.Each(func(x int) {
		if x != next {
			t.Fatalf("Each yielded %d at position %d", x, next)
		}
		next++
	})
	flat := c.Flat()
	if len(flat) != 1000 || flat[0] != 0 || flat[999] != 999 || c.Len() != 1000 {
		t.Fatalf("Flat: len %d, Len %d", len(flat), c.Len())
	}
	c.Append(1000) // appending after a Flat keeps working
	if c.Len() != 1001 || c.Flat()[1000] != 1000 {
		t.Fatal("append after Flat lost an element")
	}
}

// TestChunksPresizedAppendsDoNotAllocate pins the hot-path contract behind
// the simulator's zero-allocation ceilings.
func TestChunksPresizedAppendsDoNotAllocate(t *testing.T) {
	var c Chunks[float64]
	c.Grow(1000)
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			c.Append(float64(i))
		}
	}); n != 0 {
		t.Fatalf("presized appends allocated %v times", n)
	}
}
