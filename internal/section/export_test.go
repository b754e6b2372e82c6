package section

// New builds a section from dimension triplets.
func New(dims ...Dim) Section {
	return Section{Dims: dims}
}
