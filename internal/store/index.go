package store

// ngramSize is the gram width of the state-string inverted index. With
// a 4-letter alphabet, 4-grams give up to 256 postings lists — small
// and selective enough for breathing data, where the regular pattern
// "EOI EOI ..." dominates.
const ngramSize = 4

// ngramIndex is an inverted index from state-string n-grams to their
// start positions. It supports incremental extension as vertices are
// appended to the owning stream.
type ngramIndex struct {
	postings map[string][]int32
	built    int // number of state-string positions already indexed
}

func newNgramIndex() *ngramIndex {
	return &ngramIndex{postings: make(map[string][]int32)}
}

// build indexes the full state string from scratch.
func (ix *ngramIndex) build(stateStr []byte) {
	ix.postings = make(map[string][]int32)
	ix.built = 0
	ix.extend(stateStr)
}

// extend indexes any new complete grams introduced by appended states.
func (ix *ngramIndex) extend(stateStr []byte) {
	for ; ix.built+ngramSize <= len(stateStr); ix.built++ {
		g := string(stateStr[ix.built : ix.built+ngramSize])
		ix.postings[g] = append(ix.postings[g], int32(ix.built))
	}
}
