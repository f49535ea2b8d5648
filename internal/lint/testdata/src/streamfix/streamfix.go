// Package streamfix is the streamsafe-analyzer fixture. It imports the
// real dataset package so the type-driven ledger detection is exercised
// against the genuine Corpus type.
package streamfix

import "crawlerbox/internal/dataset"

func CountRawBytes(c *dataset.Corpus) int {
	total := 0
	for i := range c.Messages { // want "materializes the whole corpus"
		total += len(c.Messages[i].Raw)
	}
	return total
}

func CollectRaw(c *dataset.Corpus) [][]byte {
	out := make([][]byte, 0, len(c.Messages)) // want "sized by the whole corpus"
	c.Each(func(i int, m *dataset.Message) bool {
		out = append(out, m.Raw)
		return true
	})
	return out
}

// Streamed is the clean shape: iterate through Each, size by Len.
func Streamed(c *dataset.Corpus) []int {
	sizes := make([]int, 0, c.Len())
	c.Each(func(i int, m *dataset.Message) bool {
		sizes = append(sizes, len(m.Raw))
		return true
	})
	return sizes
}

// NotALedger proves the check is type-driven: a field named Messages on an
// unrelated struct is untouched.
type mailbox struct {
	Messages []string
}

func CountMailbox(mb *mailbox) int {
	n := 0
	for range mb.Messages {
		n++
	}
	return n
}

// Sanctioned demonstrates the suppression the real materialization sites
// carry.
func Sanctioned(c *dataset.Corpus) int {
	n := 0
	//cblint:ignore streamsafe fixture demonstrates the sanctioned-site suppression
	for range c.Messages {
		n++
	}
	return n
}
