package fleet

import "tcpls/internal/fault"

// Shrink minimizes a failing scenario's fault schedule with fault.Shrink,
// replaying candidate subsets through Run with an explicit Schedule.
// Soundness rests on two campaign properties: runs are deterministic, and
// the workload derives from Seed independently of the schedule — so
// removing fault events changes nothing except the faults themselves.
//
// Shrink returns the minimized scenario (still failing, Schedule
// explicit), its result, and the number of trial campaigns spent. If sc
// does not fail at all, it returns sc's materialized form, the passing
// result, and 1.
func Shrink(sc Scenario) (Scenario, *Result, int) {
	sc = sc.WithDefaults()
	sc.Schedule = sc.schedule()
	var best *Result
	min, trials := fault.Shrink(sc.Schedule, 64, func(s fault.Schedule) bool {
		trial := sc
		trial.Schedule = append(fault.Schedule{}, s...) // non-nil: empty means "no faults", not "generate"
		res := Run(trial)
		if best == nil || res.Failed() {
			best = res
		}
		return res.Failed()
	})
	sc.Schedule = min
	return sc, best, trials
}
