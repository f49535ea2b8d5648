package crawlerbox

// ParseMemoSize exposes the parse memo's capacity to the external tests.
const ParseMemoSize = parseMemoSize

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
