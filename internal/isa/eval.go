package isa

// Functional evaluation of the pure compute subset of the ISA. These
// helpers are the single source of arithmetic truth, shared by the timed
// SPU pipeline model (internal/spu) and the untimed functional oracle
// (internal/synth): both must agree bit-for-bit on every ALU result and
// branch decision, or the differential checker would report phantom
// divergences that are really interpreter skew.

// EvalALU computes the result of a register-writing compute instruction:
// it is total over the opcodes of units FX, SH, MUL and DIV other than
// NOP (TestEvalALUTotal). a and b are the values of Ra and Rb; imm is
// the sign-extended immediate. Ops outside that set return 0.
func EvalALU(op Op, a, b, imm int64) int64 {
	switch op {
	case MOVI:
		return imm
	case MOVHI:
		return imm << 32
	case MOV:
		return a
	case ADD:
		return a + b
	case ADDI:
		return a + imm
	case SUB:
		return a - b
	case SUBI:
		return a - imm
	case MUL:
		return a * b
	case MULI:
		return a * imm
	case DIV:
		if b == 0 {
			return 0
		}
		return a / b
	case REM:
		if b == 0 {
			return 0
		}
		return a % b
	case AND:
		return a & b
	case ANDI:
		return a & imm
	case OR:
		return a | b
	case ORI:
		return a | imm
	case XOR:
		return a ^ b
	case XORI:
		return a ^ imm
	case SHL:
		return a << (uint64(b) & 63)
	case SHLI:
		return a << (uint64(imm) & 63)
	case SHR:
		return int64(uint64(a) >> (uint64(b) & 63))
	case SHRI:
		return int64(uint64(a) >> (uint64(imm) & 63))
	case SRA:
		return a >> (uint64(b) & 63)
	case SRAI:
		return a >> (uint64(imm) & 63)
	case CMPEQ:
		if a == b {
			return 1
		}
		return 0
	case CMPLT:
		if a < b {
			return 1
		}
		return 0
	case CMPLTU:
		if uint64(a) < uint64(b) {
			return 1
		}
		return 0
	}
	return 0
}

// BranchTaken decides a conditional branch given the values of Ra and
// Rb. JMP is unconditional; non-branch ops return false.
func BranchTaken(op Op, a, b int64) bool {
	switch op {
	case JMP:
		return true
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return a < b
	case BGE:
		return a >= b
	case BLTU:
		return uint64(a) < uint64(b)
	case BGEU:
		return uint64(a) >= uint64(b)
	}
	return false
}
