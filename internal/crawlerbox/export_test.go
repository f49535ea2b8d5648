package crawlerbox

// ParseMemoSize exposes the parse memo's capacity to the external tests.
const ParseMemoSize = parseMemoSize

// ParseMemoBudget exposes the parse memo's byte budget to the external
// tests.
const ParseMemoBudget = parseMemoBytes

// ParseMemoLen reports how many parses the pipeline's memo holds.
func (p *Pipeline) ParseMemoLen() int {
	p.memo.mu.Lock()
	defer p.memo.mu.Unlock()
	n := 0
	for i := range p.memo.entries {
		if p.memo.entries[i].res != nil {
			n++
		}
	}
	return n
}

// ParseMemoBytes sums what the memo's entries pin: each one's raw message
// and the HTML attachments its parse kept.
func (p *Pipeline) ParseMemoBytes() int {
	p.memo.mu.Lock()
	defer p.memo.mu.Unlock()
	n := 0
	for i := range p.memo.entries {
		if e := &p.memo.entries[i]; e.res != nil {
			n += len(e.raw)
			for _, a := range e.res.HTMLAttachments {
				n += len(a.Content)
			}
		}
	}
	return n
}
