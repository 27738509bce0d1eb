package comm

// Kinds lists every transport in canonical order, so the contract and
// parity tests cover each registered Kind.
func Kinds() []Kind {
	out := make([]Kind, len(kindNames))
	for i := range kindNames {
		out[i] = Kind(i)
	}
	return out
}
