package vm

import (
	"math"

	"compdiff/internal/ir"
)

// This file is the *reference* interpreter: one exported semantic,
// executed the simplest possible way — re-derive the current frame,
// check the step budget, decode, dispatch, one instruction per call.
// The production path is runLoop (fastloop.go), which executes the
// same instruction set with the frame, pc, and code slice hoisted
// into locals and the step budget checked in batches. Options.
// Reference selects this loop; the differential self-test holds the
// two observationally identical over the whole corpus.

// step executes one instruction.
func (m *Machine) step() {
	m.steps++
	if m.steps > m.limit {
		m.trap(StepLimit)
		return
	}
	fr := &m.frames[len(m.frames)-1]
	if fr.pc < 0 || fr.pc >= len(fr.fn.Code) {
		m.trap(VMFault)
		return
	}
	in := fr.fn.Code[fr.pc]
	fr.pc++
	if m.opts.TraceLines {
		m.traceLine(in.Line)
	}

	switch in.Op {
	case ir.Nop:
	case ir.ConstI:
		m.push(uint64(in.Imm))
	case ir.ConstF:
		m.push(math.Float64bits(in.FImm))
	case ir.StrAddr:
		m.push(ir.RodataBase + uint64(in.Imm))
	case ir.FrameAddr:
		m.push(fr.base + uint64(in.Imm))
	case ir.GlobalAddr:
		m.push(ir.GlobalsBase + uint64(in.Imm))
	case ir.Dup:
		v, t := m.popT()
		m.pushT(v, t)
		m.pushT(v, t)
	case ir.Pop:
		m.pop()
	case ir.Swap:
		b, tb := m.popT()
		a, ta := m.popT()
		m.pushT(b, tb)
		m.pushT(a, ta)

	case ir.Load:
		addr, ta := m.popT()
		if ta {
			m.report("msan", "use-of-uninitialized-value", in.Line)
			return
		}
		m.loadAt(addr, &in)

	case ir.LdLoc:
		// Fused FrameAddr+Load: the address is a frame displacement,
		// which can never carry taint.
		m.loadAt(fr.base+uint64(in.Imm), &in)

	case ir.Store:
		v, tv := m.popT()
		addr, ta := m.popT()
		if ta {
			m.report("msan", "use-of-uninitialized-value", in.Line)
			return
		}
		w := uint64(in.A)
		if !m.checkAccess(addr, w, true, in.Line) {
			return
		}
		raw := v
		if in.B == 2 {
			raw = uint64(f32bits(v))
		}
		m.rawStore(addr, int(in.A), raw)
		m.markInit(addr, w, !tv)

	case ir.Add, ir.Sub, ir.Mul, ir.BitAnd, ir.BitOr, ir.BitXor:
		b, tb := m.popT()
		a, ta := m.popT()
		tc := ir.TypeCode(in.A)
		if m.opts.San == SanUBSan && ir.OverflowSigned(in.Op, tc, a, b) {
			m.report("ubsan", "signed-integer-overflow", in.Line)
			return
		}
		m.pushT(ir.IntAlu(in.Op, tc, a, b), ta || tb)

	case ir.AluImm:
		// Fused ConstI+ALU: the constant is the right operand and is
		// never tainted; sanitizer behaviour matches the pair.
		a, ta := m.popT()
		tc := ir.TypeCode(in.A)
		op := ir.Add + ir.Op(in.B)
		if m.opts.San == SanUBSan && ir.OverflowSigned(op, tc, a, uint64(in.Imm)) {
			m.report("ubsan", "signed-integer-overflow", in.Line)
			return
		}
		m.pushT(ir.IntAlu(op, tc, a, uint64(in.Imm)), ta)

	case ir.CmpImm:
		// Fused ConstI+Cmp* (integer only; emission guarantees it).
		a, ta := m.popT()
		v := uint64(0)
		if ir.IntCmp(ir.CmpEq+ir.Op(in.B), ir.TypeCode(in.A), a, uint64(in.Imm)) {
			v = 1
		}
		m.pushT(v, ta)

	case ir.Div, ir.Mod:
		m.execDivMod(&in)

	case ir.Neg:
		a, ta := m.popT()
		tc := ir.TypeCode(in.A)
		if m.opts.San == SanUBSan && ir.OverflowSigned(ir.Neg, tc, a, 0) {
			m.report("ubsan", "signed-integer-overflow", in.Line)
			return
		}
		m.pushT(ir.Canon(tc, -a), ta)

	case ir.BitNot:
		a, ta := m.popT()
		m.pushT(ir.Canon(ir.TypeCode(in.A), ^a), ta)

	case ir.Shl, ir.Shr:
		m.execShift(&in)

	case ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe:
		b, tb := m.popT()
		a, ta := m.popT()
		tc := ir.TypeCode(in.A)
		var res bool
		if tc.IsFloat() {
			x, y := math.Float64frombits(a), math.Float64frombits(b)
			switch in.Op {
			case ir.CmpEq:
				res = x == y
			case ir.CmpNe:
				res = x != y
			case ir.CmpLt:
				res = x < y
			case ir.CmpLe:
				res = x <= y
			case ir.CmpGt:
				res = x > y
			case ir.CmpGe:
				res = x >= y
			}
		} else {
			res = ir.IntCmp(in.Op, tc, a, b)
		}
		v := uint64(0)
		if res {
			v = 1
		}
		m.pushT(v, ta || tb)

	case ir.Conv:
		a, ta := m.popT()
		m.pushT(ir.ConvWord(ir.TypeCode(in.A), ir.TypeCode(in.B), a), ta)

	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv:
		b, tb := m.popT()
		a, ta := m.popT()
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		var r float64
		switch in.Op {
		case ir.FAdd:
			r = x + y
		case ir.FSub:
			r = x - y
		case ir.FMul:
			r = x * y
		default:
			r = x / y
		}
		if ir.TypeCode(in.A) == ir.F32 {
			r = float64(float32(r))
		}
		m.pushT(math.Float64bits(r), ta || tb)

	case ir.FNeg:
		a, ta := m.popT()
		m.pushT(math.Float64bits(-math.Float64frombits(a)), ta)

	case ir.FMulAdd:
		c, tc := m.popT()
		b, tb := m.popT()
		a, ta := m.popT()
		r := math.FMA(math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c))
		m.pushT(math.Float64bits(r), ta || tb || tc)

	case ir.Jmp:
		fr.pc = int(in.Imm)

	case ir.Jz, ir.Jnz:
		v, t := m.popT()
		if t {
			// Branch on uninitialized data: MSan's core check.
			m.report("msan", "use-of-uninitialized-value", in.Line)
			return
		}
		if (in.Op == ir.Jz) == (v == 0) {
			fr.pc = int(in.Imm)
		}

	case ir.Call:
		// The argument window aliases the popped stack slots in place.
		m.sp -= int(in.A)
		m.callS(int(in.Imm), m.ops[m.sp:m.sp+int(in.A)], in.B == 1)

	case ir.CallB:
		// The argument window aliases the popped stack slots in place
		// (see builtin's aliasing invariant).
		m.sp -= int(in.A)
		m.builtin(int(in.Imm), m.ops[m.sp:m.sp+int(in.A)], in.B == 1, in.Line)

	case ir.Ret:
		m.ret(in.A == 1)

	case ir.TSet:
		v, t := m.popT()
		if m.tsp == len(m.temps) {
			m.growTemps()
		}
		m.temps[m.tsp] = slot{v: v, t: t}
		m.tsp++
	case ir.TGet:
		s := m.temps[m.tsp-1]
		m.pushT(s.v, s.t)
	case ir.TPop:
		m.tsp--

	case ir.Edge:
		if m.cov != nil {
			loc := m.edgeHash[in.Imm]
			m.cov[m.covSlot[loc^m.prevLoc]]++
			m.prevLoc = loc >> 1
		}

	case ir.Poison:
		m.push(m.poison(uint64(in.Imm)))

	case ir.Unreach:
		m.trap(VMFault)

	default:
		m.trap(VMFault)
	}
}

// loadAt performs a Load's memory access, width handling, and taint
// propagation at addr. Shared by Load and the fused LdLoc so the two
// cannot drift.
func (m *Machine) loadAt(addr uint64, in *ir.Instr) {
	w := uint64(in.A)
	if !m.checkAccess(addr, w, false, in.Line) {
		return
	}
	t := m.loadTaint(addr, w)
	raw := m.rawLoad(addr, int(in.A))
	var v uint64
	switch in.B {
	case 1: // sign-extend
		switch in.A {
		case 1:
			v = uint64(int64(int8(raw)))
		case 4:
			v = uint64(int64(int32(raw)))
		default:
			v = raw
		}
	case 2: // float32
		v = f32val(uint32(raw))
	default: // zero-extend or float64
		v = raw
	}
	m.pushT(v, t)
}

// execDivMod implements Div/Mod with the profile-dependent UB policy.
// Shared by the reference and fast loops so the two cannot drift.
func (m *Machine) execDivMod(in *ir.Instr) {
	b, tb := m.popT()
	a, ta := m.popT()
	tc := ir.TypeCode(in.A)
	if tb && m.msanInit != nil {
		m.report("msan", "use-of-uninitialized-value", in.Line)
		return
	}
	if b == 0 {
		if m.opts.San == SanUBSan {
			m.report("ubsan", "division-by-zero", in.Line)
			return
		}
		// Remainder lowers through the same divide instruction on
		// every implementation here, so x%0 traps uniformly; only
		// the quotient form gets folded into poison by optimizers.
		if m.prof.DivZeroTrap || in.Op == ir.Mod {
			m.trap(SigFpe)
			return
		}
		m.pushT(m.poison(uint64(in.Line)^0xd117), ta || tb)
		return
	}
	if tc.Signed() && int64(b) == -1 && int64(a) == (-1<<uint(tc.Bits()-1)) {
		if m.opts.San == SanUBSan {
			m.report("ubsan", "signed-integer-overflow", in.Line)
			return
		}
		if m.prof.MinIntDivTrap {
			m.trap(SigFpe)
			return
		}
		if in.Op == ir.Div {
			m.pushT(ir.Canon(tc, a), ta || tb) // wraps to INT_MIN
		} else {
			m.pushT(0, ta || tb)
		}
		return
	}
	var r uint64
	if tc.Signed() {
		if in.Op == ir.Div {
			r = uint64(int64(a) / int64(b))
		} else {
			r = uint64(int64(a) % int64(b))
		}
	} else {
		ua, ub := truncToBits(a, tc.Bits()), truncToBits(b, tc.Bits())
		if in.Op == ir.Div {
			r = ua / ub
		} else {
			r = ua % ub
		}
	}
	m.pushT(ir.Canon(tc, r), ta || tb)
}

// execShift implements Shl/Shr with the profile-dependent
// out-of-range-count policy. Shared by both interpreter loops.
func (m *Machine) execShift(in *ir.Instr) {
	cnt, tb := m.popT()
	a, ta := m.popT()
	tc := ir.TypeCode(in.A)
	bits := uint64(tc.Bits())
	if cnt >= bits {
		if m.opts.San == SanUBSan {
			m.report("ubsan", "shift-out-of-bounds", in.Line)
			return
		}
		if m.prof.ShiftMask {
			cnt &= bits - 1 // x86 shifter behaviour
		} else {
			m.pushT(0, ta || tb) // as if constant-folded to zero
			return
		}
	}
	var r uint64
	if in.Op == ir.Shl {
		r = a << cnt
	} else if tc.Signed() {
		r = uint64(int64(a) >> cnt)
	} else {
		r = truncToBits(a, tc.Bits()) >> cnt
	}
	m.pushT(ir.Canon(tc, r), ta || tb)
}

// poison produces the implementation-determined garbage value the
// optimizer left where it exploited UB.
func (m *Machine) poison(seed uint64) uint64 {
	x := seed ^ m.prof.Key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func truncToBits(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & (1<<uint(bits) - 1)
}
