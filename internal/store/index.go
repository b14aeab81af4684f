package store

// ngramSize is the gram width of the state-string inverted index. With
// a 4-letter alphabet, 4-grams give up to 256 postings lists — small
// and selective enough for breathing data, where the regular pattern
// "EOI EOI ..." dominates.
const ngramSize = 4

// ngramIndex is an inverted index from state-string n-grams, packed into
// a word (gramKey), to their start positions. It supports incremental
// extension as vertices are appended to the owning stream.
type ngramIndex struct {
	postings map[uint32][]int32
	built    int // number of state-string positions already indexed
}

// gramKey packs the first ngramSize state letters of g.
func gramKey[S string | []byte](g S) uint32 {
	return uint32(g[0]) | uint32(g[1])<<8 | uint32(g[2])<<16 | uint32(g[3])<<24
}

// extend indexes any new complete grams introduced by appended states.
func (ix *ngramIndex) extend(stateStr []byte) {
	for ; ix.built+ngramSize <= len(stateStr); ix.built++ {
		g := gramKey(stateStr[ix.built:])
		ix.postings[g] = append(ix.postings[g], int32(ix.built))
	}
}
