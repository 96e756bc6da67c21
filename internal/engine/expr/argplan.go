package expr

import (
	"fmt"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
)

// ArgPlan is how the argument list of one call — a scalar function's or
// an aggregate's — is filled per row. Every slot is in exactly one
// class, decided once from the AST: a literal is evaluated when the plan
// is built and never written again; a bare column reference of the
// driving row is a gather entry, its ordinal resolved then, so the
// per-row step is an indexed copy behind one range check per call; a
// bare column reference of the owner's join tail (Scope.TailAt) is a
// bound entry, filled — and converted for a float body — once per
// Scope.Bind, not per row; anything else (`?`, arithmetic, function
// calls, CASE) is an evaluator entry, run in slot order. A plan carries
// the buffers it fills, so it belongs to one goroutine at a time, like
// the evaluators it holds. A scalar call's plan may also be placed on a
// float row (FloatCall.Place): its gather entries then copy runs of the
// row and its nested calls run on the row too (fillFloats).
type ArgPlan struct {
	vals  []sqltypes.Value // what Fill returns boxed; literal slots are final
	lits  []int            // the literal slots
	cols  []ArgColumn
	bound []ArgColumn // Ord indexes the bound tail row
	evs   []argEval
	need  int // one past the highest gathered ordinal

	// The float-row placement: the gather entries as runs of the float
	// row, and the evaluator entries, all nested float calls, by slot.
	runs  []argRun
	calls []argCall

	scope      *Scope // the owner whose tail the bound entries read; nil without any
	gen        uint64 // the binding the bound slots hold; 0 before the first
	boundFloat bool   // every bound value of that binding converted
}

// ArgColumn is a gather or bound entry of a plan: argument Slot is
// row[Ord], or the bound tail row's column Ord.
type ArgColumn struct{ Slot, Ord int }

type argEval struct {
	slot int
	ev   Evaluator
}

// argRun is n gather entries one copy fills from a float row: slots
// slot.. slot+n-1 are row positions pos.. pos+n-1.
type argRun struct{ slot, pos, n int }

// argCall is an evaluator entry of a placed plan: a nested float call.
type argCall struct {
	slot int
	call *funcEval
}

func (c *compiler) planArgs(args []sqlparser.Expr) (ArgPlan, error) {
	p := ArgPlan{vals: make([]sqltypes.Value, len(args))}
	for slot, e := range args {
		ev, err := c.compile(e)
		if err != nil {
			return p, err
		}
		switch ev := ev.(type) {
		case constEval:
			p.vals[slot] = ev.v
			p.lits = append(p.lits, slot)
		case colEval:
			if ev.idx < 0 {
				return p, fmt.Errorf("expr: column %s resolved to ordinal %d", ev.name, ev.idx)
			}
			p.cols = append(p.cols, ArgColumn{slot, ev.idx})
			p.need = max(p.need, ev.idx+1)
		case boundEval:
			p.bound = append(p.bound, ArgColumn{slot, ev.idx})
			p.scope = ev.scope
		default:
			p.evs = append(p.evs, argEval{slot, ev})
		}
	}
	return p, nil
}

// Fill is the one per-row loop. With no dst it completes the argument
// list from row and returns it — the plan's own slice: valid until the
// next call, not to be written. With dst — a float body's scratch, the
// one Floats returned, passed on every call — every argument but the
// literals goes there unboxed, columns straight from row, and nil is
// returned; a row with an argument Float refuses (a NULL, a non-numeric
// string) gets the boxed list after all, for the function's boxed form,
// whose adapter owns NULLs and the error. A bound value that does not
// convert sends every row of its binding there. Bound slots are filled
// on the first call after a Bind, evaluator entries then run first and
// once.
func (p *ArgPlan) Fill(row sqltypes.Row, dst []float64) ([]sqltypes.Value, error) {
	if len(row) < p.need {
		return nil, fmt.Errorf("expr: row of width %d, the call's arguments read %d columns", len(row), p.need)
	}
	numbers := dst != nil
	if p.scope != nil {
		if p.gen != p.scope.gen || p.gen == 0 {
			if err := p.rebind(dst); err != nil {
				return nil, err
			}
		}
		numbers = numbers && p.boundFloat
	}
	for _, a := range p.evs {
		v, err := a.ev.Eval(row)
		if err != nil {
			return nil, err
		}
		p.vals[a.slot] = v
		if numbers {
			dst[a.slot], numbers = v.Float()
		}
	}
	if numbers {
		for _, c := range p.cols {
			if dst[c.Slot], numbers = row[c.Ord].Float(); !numbers {
				break
			}
		}
		if numbers {
			return nil, nil
		}
	}
	for _, c := range p.cols {
		p.vals[c.Slot] = row[c.Ord]
	}
	return p.vals, nil
}

// rebind fills the bound slots from the owner's current tail row: boxed
// always, into dst too while every value converts.
func (p *ArgPlan) rebind(dst []float64) error {
	t := p.scope.tail
	p.boundFloat = dst != nil
	for _, c := range p.bound {
		if c.Ord >= len(t) {
			return fmt.Errorf("expr: bound tail row of width %d, the call's arguments read column %d of it", len(t), c.Ord)
		}
		p.vals[c.Slot] = t[c.Ord]
		if p.boundFloat {
			dst[c.Slot], p.boundFloat = t[c.Ord].Float()
		}
	}
	p.gen = p.scope.gen
	return nil
}

// fillFloats is Fill for a float row, on a plan FloatCall.Place placed:
// the bound slots are filled after a Bind as Fill fills them, each
// nested call runs on the row and hands on its result as its boxed form
// would convert (FuncDef.widen), in slot order and first, and the gather
// entries are copied from the row run by run. The row's owner has made
// sure every bound value converts (FloatCall.Columns names them).
func (p *ArgPlan) fillFloats(frow, dst []float64) error {
	if p.scope != nil && (p.gen != p.scope.gen || p.gen == 0) {
		if err := p.rebind(dst); err != nil {
			return err
		}
		if !p.boundFloat {
			return fmt.Errorf("expr: internal: a bound value of a float-row call is not a number")
		}
	}
	for _, a := range p.calls {
		f, err := a.call.evalFloats(frow)
		if err != nil {
			return err
		}
		dst[a.slot] = a.call.def.widen(f)
	}
	for _, r := range p.runs {
		copy(dst[r.slot:r.slot+r.n], frow[r.pos:r.pos+r.n])
	}
	return nil
}

// Floats returns the scratch a float body is called with when it takes
// the first lead arguments boxed (0 for a scalar function): the later
// literal slots already converted. It is nil when one of the first lead
// arguments is not a literal or a later literal does not convert —
// every call of such a plan takes the boxed form.
func (p *ArgPlan) Floats(lead int) []float64 {
	dst := make([]float64, len(p.vals))
	boxed := 0
	for _, slot := range p.lits {
		if slot < lead {
			boxed++
			continue
		}
		f, ok := p.vals[slot].Float()
		if !ok {
			return nil
		}
		dst[slot] = f
	}
	if boxed != lead {
		return nil
	}
	return dst
}

// Lead returns the first n arguments. Where Floats(n) is non-nil they
// are literals: boxed once, the plan's own for its life, not to be
// written.
func (p *ArgPlan) Lead(n int) []sqltypes.Value { return p.vals[:n] }

// Columns returns the plan's gather entries in slot order, and whether
// they are all it has besides literals — no bound or evaluator entry.
func (p *ArgPlan) Columns() (cols []ArgColumn, bare bool) {
	return p.cols, len(p.evs) == 0 && len(p.bound) == 0
}
