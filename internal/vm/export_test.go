package vm

// UpCount returns the number of schedulable nodes.
func (f *Fleet) UpCount() int {
	n := 0
	for _, st := range f.states {
		if st == nodeUp {
			n++
		}
	}
	return n
}
