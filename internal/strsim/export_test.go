package strsim

// LCSBits exposes the bit-parallel kernel of Name.Score to the external
// tests: the LCS length, and whether the kernel (not the LCSLength
// fallback) produced it.
func (n Name) LCSBits(word string) (int, bool) { return n.lcs(word) }
