package crawlerbox

// ParseMemoSize exposes the parse memo's capacity to the external tests.
const ParseMemoSize = parseMemoSize

// ParseMemoBudget exposes the parse memo's byte budget to the external
// tests.
const ParseMemoBudget = parseMemoBytes

// ParseMemoLen reports how many parses the pipeline's memo holds.
func (p *Pipeline) ParseMemoLen() int { return p.parses.Len() }
