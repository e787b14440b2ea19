package tables

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }
