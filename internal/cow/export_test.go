package cow

// pageList returns a column's page pointers in order. A test tells a page a
// write copied from one it wrote in place by its address changing.
func (t *table[P]) pageList() []*P {
	var out []*P
	for _, c := range t.dir {
		for _, pg := range c.pages {
			if pg != nil {
				out = append(out, pg)
			}
		}
	}
	return out
}

// copiedPages counts the pages of after that are not the page at the same
// place in before: the copies the writes between the two lists made. Pages
// past the end of before were opened, not copied.
func copiedPages[P any](before, after []*P) int {
	n := 0
	for i, pg := range before {
		if after[i] != pg {
			n++
		}
	}
	return n
}
