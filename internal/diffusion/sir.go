package diffusion

// Per-node epidemic compartments for the SIR/SIS process. stateSusceptible
// must be zero: the scratch state slice starts zeroed and is reset to zero
// after each process via the cascade trace.
const (
	stateSusceptible uint8 = iota
	stateInfectious
	stateRemoved
)

// runSIRProcess executes one SIR (sis=false) or SIS (sis=true) epidemic
// process. Structure and RNG discipline mirror runProcess exactly so the
// degenerate corners collapse onto the simpler models bit-for-bit:
//
//   - Seeds come from the same permPrefix draws.
//   - Each round, every active (infectious) node attempts to infect its
//     susceptible CSR children with one Float64 trial per child; successes
//     draw one delay sample, in the same order IC would.
//   - After the attempt phase each active node draws a persistence coin
//     only when sc.Recovery > 0 (so Recovery=0 consumes zero extra draws
//     and every node is active for exactly one round — IC's semantics),
//     and a recovering node draws a reinfection coin only when sis and
//     sc.Reinfection > 0 (so SIS(reinfection=0) is SIR draw-for-draw).
//
// The active list each round is [persisting survivors..., newly infected...]
// in insertion order, which at Recovery=0 degenerates to IC's frontier.
// The cascade records first infections only; SIS reinfections (a node
// re-entering I from S) keep their original trace entry and timestamp and
// are tallied into *reinf.
func runSIRProcess(ep *EdgeProbs, sc Scenario, sis bool, delay DelaySampler, st *simScratch, reinf *int64) Cascade {
	rng := st.rng
	seeds := st.seeds()
	ever, times, state := st.infected, st.times, st.state
	var cascade Cascade
	cascade.Seeds = append([]int(nil), seeds...)

	active, newly := st.frontier[:0], st.next[:0]
	for _, s := range seeds {
		ever[s] = true
		state[s] = stateInfectious
		times[s] = 0
		cascade.Infections = append(cascade.Infections, Infection{Node: s, Round: 0, Time: 0, Parent: -1})
		active = append(active, s)
	}
	round := 0
	for len(active) > 0 && (sc.MaxRounds == 0 || round < sc.MaxRounds) {
		round++
		newly = newly[:0]
		for _, u := range active {
			tu := times[u]
			for k, end := int(ep.off[u]), int(ep.off[u+1]); k < end; k++ {
				v := int(ep.children[k])
				if state[v] != stateSusceptible {
					continue
				}
				if rng.Float64() < ep.probs[k] {
					state[v] = stateInfectious
					t := tu + delay.Sample(rng)
					times[v] = t
					if !ever[v] {
						ever[v] = true
						cascade.Infections = append(cascade.Infections, Infection{Node: v, Round: round, Time: t, Parent: u})
					} else {
						*reinf++
					}
					newly = append(newly, v)
				}
			}
		}
		// Recovery phase, in active order. keep filters active in place
		// (write index never passes the read index), then the newly
		// infected are appended behind the survivors.
		keep := active[:0]
		for _, u := range active {
			if sc.Recovery > 0 && rng.Float64() < sc.Recovery {
				keep = append(keep, u)
				continue
			}
			if sis && sc.Reinfection > 0 && rng.Float64() < sc.Reinfection {
				state[u] = stateSusceptible
			} else {
				state[u] = stateRemoved
			}
		}
		active = append(keep, newly...)
	}
	// Reset scratch for the next process. Every node whose state or ever
	// mark changed appears in the trace (reinfections reuse their first
	// entry's node), so walking the trace restores the all-susceptible,
	// nothing-ever-infected baseline.
	for _, inf := range cascade.Infections {
		ever[inf.Node] = false
		state[inf.Node] = stateSusceptible
	}
	st.frontier, st.next = active[:0], newly[:0]
	return cascade
}
