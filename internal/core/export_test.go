package core

// Materialised reports whether c's slots have been list-scheduled. It is
// exported to the external core_test package only, for tests that pin which
// reads force the list-schedule.
func (c *Candidate) Materialised() bool { return c.index != nil }
