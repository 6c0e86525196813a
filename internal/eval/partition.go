package eval

// GridUnit addresses one (job, theorem) cell of a grid: the unit of work
// the distributed-sweep coordinator dispatches, steals, and re-dispatches.
// An Outcome is a pure function of the runner's configuration and the unit
// — never of the backend, the worker, or the schedule — which is the first
// leg of internal/sweep's byte-identity argument.
type GridUnit struct {
	Job, Th int
}

// Units flattens jobs into their grid units in job-major order — the same
// order RunGrid's shared-counter pool consumes, so a distributed sweep and
// the single-process scheduler enumerate identical work-lists.
func Units(jobs []GridJob) []GridUnit {
	var units []GridUnit
	for i := range jobs {
		for t := range jobs[i].Theorems {
			units = append(units, GridUnit{Job: i, Th: t})
		}
	}
	return units
}

// GridShape allocates the result matrix for jobs: out[i][t] receives the
// Outcome of unit {i, t}. Merging results into fixed coordinates — rather
// than appending in completion order — is what keeps every scheduler
// (serial, pooled, distributed) byte-identical.
func GridShape(jobs []GridJob) [][]Outcome {
	out := make([][]Outcome, len(jobs))
	for i := range jobs {
		out[i] = make([]Outcome, len(jobs[i].Theorems))
	}
	return out
}

// Partition splits units into n shards of near-equal size, preserving
// order: shard boundaries fall so that the first len(units)%n shards get
// one extra unit. n <= 0 is treated as 1; with fewer units than shards the
// tail shards are empty (never nil), so a fleet larger than the grid is
// handled by giving the extra workers nothing to start from — they steal.
func Partition(units []GridUnit, n int) [][]GridUnit {
	if n <= 0 {
		n = 1
	}
	shards := make([][]GridUnit, n)
	base, extra := len(units)/n, len(units)%n
	pos := 0
	for i := range shards {
		size := base
		if i < extra {
			size++
		}
		shards[i] = units[pos : pos+size : pos+size]
		pos += size
	}
	return shards
}

// RunUnit evaluates one grid cell in process.
func (r *Runner) RunUnit(jobs []GridJob, u GridUnit) Outcome {
	j := jobs[u.Job]
	return r.RunTheorem(j.Profile, j.Setting, j.Theorems[u.Th])
}
