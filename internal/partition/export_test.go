package partition

// BackingArrays returns the address of the first element of every array a
// refinement job moves between p and r, so that a test can tell a recycled
// job from one that allocated anew.
func BackingArrays(p *Partition, r *Refiner) []any {
	return []any{
		&p.blockOf[0], &r.spareBlock[0],
		&p.flat[0], &r.spareFlat[0],
		&p.members[0], &r.spareMembers[0],
		&r.origin[:1][0], &r.arena[0],
	}
}
