package vm

// CovTables exposes a coverage machine's AFL index -> slot table and
// per-edge hashes to the external tests.
func CovTables(m *Machine) (covSlot, edgeHash []uint16) { return m.covSlot, m.edgeHash }
