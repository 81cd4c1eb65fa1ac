package plan

// This file is the optimization-pass pipeline over the schedule IR.
// Compile emits the engine's historical op sequence verbatim; the
// passes then make the engine's implicit run-time optimizations
// explicit rewrites:
//
//   - ElideRedistributions removes redistributions whose source and
//     target layouts already agree (the engine's Redistribute identity
//     short-circuit, e.g. every grid<->H hop once R_A folds the grid
//     layout to H).
//   - EliminateDead removes ops whose results nothing consumes: the
//     G^0 input-gradient chain when ComputeInputGrad is off, memoized
//     products the weight-gradient case analysis never reads, and
//     cache-filling redistributions those dead ops forced.
//   - finalize renumbers registers in definition order and re-assigns
//     dense 1-based step IDs.
//
// Passes preserve the executor-observable cost behavior exactly: every
// op they remove is one the engine either no-ops at run time or skips
// via its needInputGrad guard.

// Optimize runs the full pass pipeline and returns a new schedule; the
// receiver is not modified.
func (s *Schedule) Optimize() *Schedule {
	t := s.clone()
	t.ElideRedistributions()
	t.EliminateDead()
	t.finalize()
	if err := t.Validate(); err != nil {
		panic("plan: optimized schedule invalid: " + err.Error())
	}
	return t
}

// ElideRedistributions drops KRedist ops whose normalized source and
// target layouts are equal, renaming their destination register to
// their operand everywhere downstream.
func (s *Schedule) ElideRedistributions() {
	rename := make(map[Reg]Reg)
	resolve := func(r Reg) Reg {
		for {
			n, ok := rename[r]
			if !ok {
				return r
			}
			r = n
		}
	}
	for i := range s.Sections {
		kept := s.Sections[i].Ops[:0]
		for _, op := range s.Sections[i].Ops {
			if op.A != None {
				op.A = resolve(op.A)
			}
			if op.B != None {
				op.B = resolve(op.B)
			}
			if op.Kind == KRedist && op.From.Normalize(s.P) == op.To.Normalize(s.P) {
				rename[op.Dst] = op.A
				continue
			}
			kept = append(kept, op)
		}
		s.Sections[i].Ops = kept
	}
	for i, r := range s.Outputs {
		s.Outputs[i] = resolve(r)
	}
}

// EliminateDead removes ops whose results are never consumed. Roots are
// the ops with externally-visible effects — the loss, the weight
// gradient all-reduces, the optimizer update, and forward write-out
// charges — plus the schedule's declared Outputs (G^0 when InputGrad is
// set). In-place ops (ReLU, ReLU-grad masking, SAGE adds) are live
// exactly when the register they mutate is read afterwards.
func (s *Schedule) EliminateDead() {
	live := make(map[Reg]bool)
	for _, r := range s.Outputs {
		live[r] = true
	}
	// Backward liveness scan, marking dead ops.
	ops := s.opRefs()
	drop := make([]bool, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		f := &opTable[op.Kind]
		out := op.Dst
		if f.inPlace {
			out = op.A
		}
		if !f.root && !live[out] {
			drop[i] = true
			continue
		}
		if op.A != None {
			live[op.A] = true
		}
		if op.B != None {
			live[op.B] = true
		}
	}
	s.removeOps(drop)
}

// opRefs returns every op of the schedule, in schedule order.
func (s *Schedule) opRefs() []*Op {
	ops := make([]*Op, 0, s.Ops())
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			ops = append(ops, &s.Sections[i].Ops[j])
		}
	}
	return ops
}

// removeOps deletes the ops drop marks, indexed in schedule order.
func (s *Schedule) removeOps(drop []bool) {
	k := 0
	for i := range s.Sections {
		kept := s.Sections[i].Ops[:0]
		for _, op := range s.Sections[i].Ops {
			if !drop[k] {
				kept = append(kept, op)
			}
			k++
		}
		s.Sections[i].Ops = kept
	}
}

// finalize renumbers registers in first-definition order, re-assigns
// dense 1-based step IDs, and recomputes NumRegs.
func (s *Schedule) finalize() {
	remap := make(map[Reg]Reg)
	var next Reg
	step := 0
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			op := &s.Sections[i].Ops[j]
			step++
			op.Step = step
			if op.A != None {
				if r, ok := remap[op.A]; ok {
					op.A = r
				}
			}
			if op.B != None {
				if r, ok := remap[op.B]; ok {
					op.B = r
				}
			}
			if opTable[op.Kind].dst != dstNone {
				remap[op.Dst] = next
				op.Dst = next
				next++
			}
		}
	}
	for i, r := range s.Outputs {
		if n, ok := remap[r]; ok {
			s.Outputs[i] = n
		}
	}
	s.NumRegs = int(next)
}
