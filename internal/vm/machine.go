package vm

import (
	"math/bits"

	"compdiff/internal/hash"
	"compdiff/internal/ir"
)

// SanMode selects sanitizer instrumentation for a machine.
type SanMode int

const (
	SanNone SanMode = iota
	SanASan
	SanUBSan
	SanMSan
)

// String names the mode.
func (m SanMode) String() string {
	switch m {
	case SanASan:
		return "asan"
	case SanUBSan:
		return "ubsan"
	case SanMSan:
		return "msan"
	default:
		return "none"
	}
}

// Options configures a Machine.
type Options struct {
	// StepLimit bounds executed instructions per run (timeout analog).
	// Zero means DefaultStepLimit.
	StepLimit int64
	// MaxOutput caps each captured stream in bytes. Zero means 256 KiB.
	MaxOutput int
	// San selects sanitizer instrumentation.
	San SanMode
	// Coverage enables the AFL-style edge map (for instrumented
	// binaries): one hit counter per AFL index the binary can reach.
	Coverage bool
	// TimeNow supplies the wall clock for the time_now builtin. The
	// default derives a value from the binary's personality and a run
	// counter — deliberately unstable across implementations and runs,
	// like a real clock (RQ5 material). Tests may pin it.
	TimeNow func(runSeq int64, call int) int64

	// TraceLines records the sequence of executed source lines in
	// Result.Trace (consecutive duplicates collapsed), the raw
	// material for trace-diff fault localization (paper §5). Bounded
	// by MaxTrace (default 1<<16 entries).
	TraceLines bool
	MaxTrace   int

	// Reference forces the simple per-instruction step() interpreter
	// instead of the batched fast loop. The two loops must be
	// observationally identical; the differential self-test runs every
	// corpus program through both and compares Results field by field —
	// the repo's own differential-testing medicine applied to its VM.
	Reference bool
}

// DefaultStepLimit is the per-run instruction budget.
const DefaultStepLimit = 4_000_000

// CovMapSize is the size of the AFL edge index space (AFL's classic
// 64 KiB map). The machine's coverage map holds one byte per index of
// this space that the binary can reach, not CovMapSize bytes.
const CovMapSize = 1 << 16

// Dirty-page tracking: writes set a bit per touched page, and reset
// restores only those pages from the pristine image instead of the
// whole ir.MemSize span — the fork-server loop then pays for the
// memory a run actually used, not the address range it straddled.
const (
	// 256-byte pages: typical runs dirty a few stack slots, one
	// globals region, and the input buffer, so fine pages keep the
	// fork-server reset's copy traffic proportional to what actually
	// changed rather than rounding every touched byte up to a big
	// page. The bitmap stays small and a one-word summary (dirtySum)
	// lets reset skip straight to the dirty words.
	pageShift = 8
	pageSize  = 1 << pageShift
	numPages  = ir.MemSize >> pageShift
)

// dirtySum carries one bit per word of the dirty bitmap, so the whole
// bitmap must fit in 64 words; this fails to compile if pageShift
// shrinks enough to break that.
const _ = uint64(64 - numPages/64)

// slot is one operand-stack entry: the 64-bit value word interleaved
// with its MSan taint bit, so pushes and pops touch one cache line and
// one slice instead of two.
type slot struct {
	v uint64
	t bool
}

// Machine executes one compiled binary. It plays the role of the
// AFL++ forkserver: the binary is loaded once, and each Run resets
// memory from a pristine snapshot instead of re-launching.
//
// A Machine is single-goroutine (all run state lives on it); concurrent
// callers (concurrent Suite.Run calls, difffuzz's shards) each get
// their own machine, through core's per-implementation free lists or
// per shard.
type Machine struct {
	prog *ir.Program
	opts Options
	prof ir.Profile

	mem      []byte
	pristine []byte

	// Sanitizer shadow state.
	asanShadow []byte // 0 ok, else poison kind
	msanInit   []byte // 1 = initialized

	cov      []byte   // one hit counter per reachable AFL index
	covSlot  []uint16 // AFL index -> slot in cov
	edgeHash []uint16

	// Run state.
	input   []byte
	stdout  []byte
	stderr  []byte
	steps   int64
	limit   int64
	runSeq  int64
	timeCnt int

	// Operand and temporary stacks: preallocated, reused across runs,
	// addressed by explicit stack pointers (sp/tsp) instead of
	// append/truncate pairs.
	ops   []slot
	sp    int
	temps []slot
	tsp   int

	frames []frame

	// Stack segment allocation.
	stackLow, stackHigh uint64

	heap heapState

	halt    bool
	exit    ExitKind
	code    int32
	san     *SanReport
	prevLoc uint16

	// Dirty-page bitmap: bit p set means page p of mem (and the shadow
	// planes) may differ from the pristine image. reset() restores
	// exactly these pages. dirtySum summarizes the bitmap — bit w set
	// iff dirty[w] != 0 — so reset skips clean words without loading
	// them.
	dirty    [numPages / 64]uint64
	dirtySum uint64

	// Line trace (TraceLines mode).
	trace     []int32
	lastTrace int32

	msanPristine []byte

	// res is the machine-owned Result that RunShared hands out; its
	// byte slices alias the machine's output buffers.
	res Result

	// Scratch buffers reused by the printf builtin, and the
	// direct-mapped compiled-format plan cache (see doPrintf).
	fmtBuf     []byte
	strBuf     []byte
	fmtCache   [1 << fmtCacheBits]fmtCacheEnt
	fmtScratch []fmtOp
}

// markDirty records that [addr, addr+size) may have been written.
func (m *Machine) markDirty(addr, size uint64) {
	if size == 0 {
		return
	}
	p0 := addr >> pageShift
	p1 := (addr + size - 1) >> pageShift
	if p1 >= numPages {
		p1 = numPages - 1
	}
	for p := p0; p <= p1; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
		m.dirtySum |= 1 << (p >> 6)
	}
}

type frame struct {
	fn   *ir.Func
	base uint64
	pc   int
}

// New loads prog into a fresh machine.
func New(prog *ir.Program, opts Options) *Machine {
	if opts.StepLimit <= 0 {
		opts.StepLimit = DefaultStepLimit
	}
	if opts.MaxOutput <= 0 {
		opts.MaxOutput = 256 << 10
	}
	if opts.TraceLines && opts.MaxTrace <= 0 {
		opts.MaxTrace = 1 << 16
	}
	m := &Machine{prog: prog, opts: opts, prof: prog.Profile}
	m.buildPristine()
	m.mem = make([]byte, ir.MemSize)
	copy(m.mem, m.pristine)
	if opts.San == SanASan {
		m.asanShadow = make([]byte, ir.MemSize)
	}
	if opts.San == SanMSan {
		m.msanInit = make([]byte, ir.MemSize)
		m.msanPristine = make([]byte, ir.MemSize)
		for i := ir.RodataBase; i < ir.GlobalsBase+int(m.prog.GlobalsLen); i++ {
			m.msanPristine[i] = 1
		}
		copy(m.msanInit, m.msanPristine)
	}
	m.ops = make([]slot, 256)
	m.temps = make([]slot, 64)
	m.frames = make([]frame, 0, 64)
	if opts.Coverage {
		m.edgeHash = make([]uint16, prog.NumEdges)
		for i := range m.edgeHash {
			m.edgeHash[i] = uint16(hash.Sum32([]byte{byte(i), byte(i >> 8), byte(i >> 16)}, 0xed9e) & (CovMapSize - 1))
		}
		var n int
		m.covSlot, n = covSlots(m.edgeHash)
		m.cov = make([]byte, n)
	}
	return m
}

// covSlots numbers the AFL indices a run can hit, in ascending index
// order, and returns the index -> slot table with the number of slots.
// An Edge hits loc^prevLoc, where loc is edgeHash of the edge and
// prevLoc is 0 at the start of a run or edgeHash[p]>>1 after edge p,
// so the reachable set is edgeHash[e] and edgeHash[e]^edgeHash[p]>>1
// over all edge pairs. Two indices share a slot iff they are the same
// index: every hash collision of the dense 64 KiB map is kept, and
// the classified map a fuzzer sees differs from the dense one only by
// the zero bytes it leaves out. The enumeration stops once every index
// is used, which bounds it on programs with very many edges.
func covSlots(edgeHash []uint16) ([]uint16, int) {
	var seen [CovMapSize / 64]uint64
	n := 0
	mark := func(i uint16) {
		if w, b := i/64, uint64(1)<<(i%64); seen[w]&b == 0 {
			seen[w] |= b
			n++
		}
	}
	for _, loc := range edgeHash {
		mark(loc)
	}
	for _, p := range edgeHash {
		if n == CovMapSize {
			break
		}
		for _, loc := range edgeHash {
			mark(loc ^ p>>1)
		}
	}
	slot := make([]uint16, CovMapSize)
	next := 0
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			slot[w*64+bits.TrailingZeros64(word)] = uint16(next)
			next++
		}
	}
	return slot, n
}

// buildPristine constructs the initial memory image: the
// implementation's fill pattern everywhere (what "uninitialized"
// memory contains), rodata, and zeroed+initialized globals.
func (m *Machine) buildPristine() {
	img := make([]byte, ir.MemSize)
	var pat [64]byte
	k := m.prof.Key
	for i := 0; i < 64; i += 8 {
		k = k*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		for j := 0; j < 8; j++ {
			pat[i+j] = byte(k >> (8 * j))
		}
	}
	for i := ir.NullTop; i < len(img); i += 64 {
		copy(img[i:], pat[:])
	}
	copy(img[ir.RodataBase:], m.prog.Rodata)
	// C guarantees zero-initialization of the data segment.
	gl := img[ir.GlobalsBase : ir.GlobalsBase+m.prog.GlobalsLen]
	for i := range gl {
		gl[i] = 0
	}
	for _, gi := range m.prog.GlobalInit {
		copy(img[ir.GlobalsBase+gi.Offset:], gi.Data)
	}
	m.pristine = img
}

// Program returns the loaded binary.
func (m *Machine) Program() *ir.Program { return m.prog }

// Coverage returns the edge map of the last run: one raw hit count per
// AFL index the binary can reach, in ascending index order (nil when
// coverage is disabled). Its length is fixed for the machine's
// lifetime.
func (m *Machine) Coverage() []byte { return m.cov }

// Run executes the binary on input and returns an independent Result
// the caller may retain.
func (m *Machine) Run(input []byte) *Result {
	return m.runShared(input, m.opts.StepLimit).Clone()
}

// RunWithLimit runs with a one-off step limit (the CompDiff
// partial-timeout re-run policy uses it). The limit applies to this
// run only and never touches the machine's configured options, so a
// temporary budget cannot leak into later runs of a machine reused
// from a free list. Non-positive limits fall back to the configured
// one instead of tripping an instant spurious timeout.
func (m *Machine) RunWithLimit(input []byte, limit int64) *Result {
	if limit <= 0 {
		limit = m.opts.StepLimit
	}
	return m.runShared(input, limit).Clone()
}

// RunShared is the zero-copy fast path: it executes input and returns
// a machine-owned Result whose Stdout/Stderr/Trace slices alias the
// machine's internal buffers. The Result is valid only until the
// machine's next run (or release back to a free list); callers that
// need to retain it must Clone. The differential hot path hashes the
// aliased output via Result.EncodeTo and materializes a Clone only
// when a divergence is actually detected.
func (m *Machine) RunShared(input []byte) *Result {
	return m.runShared(input, m.opts.StepLimit)
}

// RunSharedWithLimit is RunShared with a one-off step limit, with the
// same fallback semantics as RunWithLimit.
func (m *Machine) RunSharedWithLimit(input []byte, limit int64) *Result {
	if limit <= 0 {
		limit = m.opts.StepLimit
	}
	return m.runShared(input, limit)
}

func (m *Machine) runShared(input []byte, limit int64) *Result {
	m.reset(input)
	m.limit = limit
	m.call(m.prog.Main)
	if m.opts.Reference {
		for !m.halt {
			m.step()
		}
	} else {
		m.runLoop()
	}
	// Field-at-a-time writeback: m.res is machine-owned and reused, so
	// assigning a composite literal would copy a temporary for no
	// benefit on the hottest exit path.
	m.res.Exit = m.exit
	m.res.Code = m.code
	m.res.Stdout = m.stdout
	m.res.Stderr = m.stderr
	m.res.Steps = m.steps
	m.res.San = m.san
	m.res.Trace = nil
	if m.opts.TraceLines {
		m.res.Trace = m.trace
	}
	return &m.res
}

func (m *Machine) reset(input []byte) {
	for sum := m.dirtySum; sum != 0; sum &= sum - 1 {
		w := bits.TrailingZeros64(sum)
		word := m.dirty[w]
		m.dirty[w] = 0
		for word != 0 {
			p := uint64(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			lo := p << pageShift
			hi := lo + pageSize
			copy(m.mem[lo:hi], m.pristine[lo:hi])
			if m.asanShadow != nil {
				clear(m.asanShadow[lo:hi])
			}
			if m.msanInit != nil {
				copy(m.msanInit[lo:hi], m.msanPristine[lo:hi])
			}
		}
	}
	m.dirtySum = 0
	if m.cov != nil {
		clear(m.cov)
	}
	m.input = input
	m.stdout = m.stdout[:0]
	m.stderr = m.stderr[:0]
	m.steps = 0
	m.limit = m.opts.StepLimit // run() overrides for one-off limits
	m.sp = 0
	m.tsp = 0
	m.frames = m.frames[:0]
	m.stackLow = ir.StackMax
	m.stackHigh = ir.StackBase
	m.heap.reset()
	m.halt = false
	m.exit = Exited
	m.code = 0
	m.san = nil
	m.prevLoc = 0
	m.runSeq++
	m.timeCnt = 0
	m.trace = m.trace[:0]
	m.lastTrace = -1
}

// traceLine records an executed source line (collapsing repeats).
func (m *Machine) traceLine(line int32) {
	if line <= 0 || line == m.lastTrace || len(m.trace) >= m.opts.MaxTrace {
		return
	}
	m.lastTrace = line
	m.trace = append(m.trace, line)
}

// trap ends execution abnormally.
func (m *Machine) trap(kind ExitKind) {
	if m.halt {
		return
	}
	m.halt = true
	m.exit = kind
	switch kind {
	case SigSegv:
		m.writeErr("Segmentation fault (core dumped)\n")
	case SigFpe:
		m.writeErr("Floating point exception (core dumped)\n")
	case Abort:
		m.writeErr("free(): invalid pointer\nAborted (core dumped)\n")
	}
}

// report fires a sanitizer finding and halts.
func (m *Machine) report(tool, kind string, line int32) {
	if m.halt {
		return
	}
	fn := "?"
	if len(m.frames) > 0 {
		fn = m.frames[len(m.frames)-1].fn.Name
	}
	m.san = &SanReport{Tool: tool, Kind: kind, Func: fn, Line: line}
	m.writeErr("==1==ERROR: " + m.san.String() + "\n")
	m.halt = true
	m.exit = SanAbort
}

func (m *Machine) exitNormally(code int32) {
	m.halt = true
	m.exit = Exited
	m.code = code
}

func (m *Machine) writeOut(s string) {
	if len(m.stdout) < m.opts.MaxOutput {
		m.stdout = append(m.stdout, s...)
	}
}

func (m *Machine) writeOutBytes(b []byte) {
	if len(m.stdout) < m.opts.MaxOutput {
		m.stdout = append(m.stdout, b...)
	}
}

func (m *Machine) writeErr(s string) {
	if len(m.stderr) < m.opts.MaxOutput {
		m.stderr = append(m.stderr, s...)
	}
}

// push/pop maintain the operand stack. Values and taint bits live in
// one interleaved slot array; machines without MSan simply carry
// always-false taint bits at no extra slice traffic.
func (m *Machine) push(v uint64) {
	if m.sp == len(m.ops) {
		m.growOps()
	}
	m.ops[m.sp] = slot{v: v}
	m.sp++
}

func (m *Machine) pushT(v uint64, t bool) {
	if m.sp == len(m.ops) {
		m.growOps()
	}
	m.ops[m.sp] = slot{v: v, t: t}
	m.sp++
}

func (m *Machine) pop() uint64 {
	m.sp--
	return m.ops[m.sp].v
}

func (m *Machine) popT() (uint64, bool) {
	m.sp--
	s := m.ops[m.sp]
	return s.v, s.t
}

// growOps doubles the operand stack. The preallocated capacity covers
// ordinary programs; only pathological expression nesting or deep
// zero-frame recursion lands here.
func (m *Machine) growOps() {
	next := make([]slot, len(m.ops)*2)
	copy(next, m.ops)
	m.ops = next
}

func (m *Machine) growTemps() {
	next := make([]slot, len(m.temps)*2)
	copy(next, m.temps)
	m.temps = next
}

// call invokes function fi with no arguments (program entry).
func (m *Machine) call(fi int) {
	m.callS(fi, nil, false)
}

// callS invokes function fi. sl is the popped argument window of the
// operand stack, aliased in place (same zero-copy protocol as
// builtin); rev means the binary pushed right-to-left, so arguments
// read back-to-front. Extra arguments are dropped; missing ones leave
// the parameter slots holding stack garbage (CWE-685 semantics).
func (m *Machine) callS(fi int, sl []slot, rev bool) {
	fn := m.prog.Funcs[fi]
	var base uint64
	if m.prof.StackDown {
		if m.stackLow < uint64(fn.FrameSize)+ir.StackBase {
			m.trap(SigSegv) // stack overflow
			return
		}
		m.stackLow -= uint64(fn.FrameSize)
		base = m.stackLow
	} else {
		base = m.stackHigh
		if base+uint64(fn.FrameSize) > ir.StackMax {
			m.trap(SigSegv)
			return
		}
		m.stackHigh += uint64(fn.FrameSize)
	}

	if m.msanInit != nil {
		// A fresh frame is uninitialized memory.
		m.markDirty(base, uint64(fn.FrameSize))
		for i := base; i < base+uint64(fn.FrameSize); i++ {
			m.msanInit[i] = 0
		}
	}
	if m.asanShadow != nil {
		// Poison everything in the frame that is not a variable slot
		// (the redzones the ASan compile layout inserted).
		m.markDirty(base, uint64(fn.FrameSize))
		for i := base; i < base+uint64(fn.FrameSize); i++ {
			m.asanShadow[i] = shadowStackRZ
		}
		for _, s := range fn.Slots {
			for i := base + uint64(s.Off); i < base+uint64(s.Off+s.Size); i++ {
				m.asanShadow[i] = 0
			}
		}
	}

	for i := 0; i < len(fn.ParamOff) && i < len(sl); i++ {
		addr := base + uint64(fn.ParamOff[i])
		w := paramWidth(fn.ParamKind[i])
		s := sl[i]
		if rev {
			s = sl[len(sl)-1-i]
		}
		v := s.v
		if fn.ParamKind[i] == ir.F32 {
			v = ir.ConvWord(ir.F64, ir.F32, v)
			v = uint64(f32bits(v))
		}
		m.rawStore(addr, w, v)
		if m.msanInit != nil {
			m.markInit(addr, uint64(w), !s.t)
		}
	}
	m.frames = append(m.frames, frame{fn: fn, base: base})
}

func paramWidth(tc ir.TypeCode) int {
	switch tc {
	case ir.I8, ir.U8:
		return 1
	case ir.I32, ir.U32, ir.F32:
		return 4
	default:
		return 8
	}
}

func (m *Machine) ret(hasValue bool) {
	var v uint64
	var t bool
	if hasValue {
		v, t = m.popT()
	}
	fr := m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	if m.prof.StackDown {
		m.stackLow += uint64(fr.fn.FrameSize)
	} else {
		m.stackHigh -= uint64(fr.fn.FrameSize)
	}
	if m.asanShadow != nil {
		base := fr.base
		for i := base; i < base+uint64(fr.fn.FrameSize); i++ {
			m.asanShadow[i] = 0
		}
	}
	if len(m.frames) == 0 {
		// main returned: its value is the exit status.
		code := int32(0)
		if hasValue {
			code = int32(v)
		}
		m.exitNormally(code)
		return
	}
	if hasValue {
		m.pushT(v, t)
	}
}
