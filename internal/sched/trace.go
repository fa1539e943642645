package sched

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"

	"github.com/tiled-la/bidiag/internal/obs"
)

// TraceEvent is one scheduled task instance in a simulated execution.
type TraceEvent struct {
	Task   *Task
	Worker int // global worker index (node*workersPerNode + local)
	Start  float64
	End    float64
}

// SimulateFixedTrace is SimulateFixed with a full schedule trace: every
// task's start/end time and worker assignment. Used for Gantt-style
// inspection of the reduction trees and for the Chrome-tracing export.
func (g *Graph) SimulateFixedTrace(workers int, timeOf func(*Task) float64) (SimResult, []TraceEvent) {
	if workers < 1 {
		workers = 1
	}
	g.resetExecState()
	g.ComputeBottomLevels(timeOf)

	var ready ReadyQueue
	for _, t := range g.Tasks {
		if t.npred == 0 {
			ready = append(ready, t)
		}
	}
	heap.Init(&ready)

	type runSlot struct {
		at     float64
		task   *Task
		worker int
	}
	var running []runSlot
	pushRun := func(r runSlot) {
		running = append(running, r)
		i := len(running) - 1
		for i > 0 {
			p := (i - 1) / 2
			if running[p].at <= running[i].at {
				break
			}
			running[p], running[i] = running[i], running[p]
			i = p
		}
	}
	popRun := func() runSlot {
		top := running[0]
		last := len(running) - 1
		running[0] = running[last]
		running = running[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(running) && running[l].at < running[s].at {
				s = l
			}
			if r < len(running) && running[r].at < running[s].at {
				s = r
			}
			if s == i {
				break
			}
			running[i], running[s] = running[s], running[i]
			i = s
		}
		return top
	}

	freeWorkers := make([]int, workers)
	for i := range freeWorkers {
		freeWorkers[i] = workers - 1 - i // pop from the back → worker 0 first
	}
	now, busy := 0.0, 0.0
	done := 0
	events := make([]TraceEvent, 0, len(g.Tasks))
	for done < len(g.Tasks) {
		for len(freeWorkers) > 0 && len(ready) > 0 {
			t := heap.Pop(&ready).(*Task)
			w := freeWorkers[len(freeWorkers)-1]
			freeWorkers = freeWorkers[:len(freeWorkers)-1]
			d := timeOf(t)
			busy += d
			events = append(events, TraceEvent{Task: t, Worker: w, Start: now, End: now + d})
			pushRun(runSlot{at: now + d, task: t, worker: w})
		}
		if len(running) == 0 {
			break
		}
		r := popRun()
		now = r.at
		freeWorkers = append(freeWorkers, r.worker)
		done++
		for _, s := range r.task.succs {
			s.npred--
			if s.npred == 0 {
				heap.Push(&ready, s)
			}
		}
	}
	util := 0.0
	if now > 0 {
		util = busy / (float64(workers) * now)
	}
	return SimResult{Makespan: now, BusyTime: busy, Utilization: util, Tasks: done}, events
}

// MeasuredTraceEvents converts a collected measured trace (obs.Tracer
// events from a real execution) into the TraceEvent shape the simulator
// emits, with times in seconds, so WriteChromeTrace and every other
// consumer render measured and simulated schedules identically. The Task
// pointers are synthesized from the event metadata; they carry the
// identity fields (kind, coordinates, node, flops) but none of the graph
// structure.
func MeasuredTraceEvents(events []obs.Event) []TraceEvent {
	out := make([]TraceEvent, 0, len(events))
	for _, e := range events {
		t := &Task{ID: e.ID, Kind: e.Kind, Node: e.Node, I: e.I, J: e.J, K: e.K, Flops: e.Flops}
		out = append(out, TraceEvent{
			Task:   t,
			Worker: int(e.Worker),
			Start:  e.Start.Seconds(),
			End:    e.End.Seconds(),
		})
	}
	return out
}

// WriteChromeTrace emits the schedule in the Chrome tracing JSON array
// format (load via chrome://tracing or Perfetto). Durations are scaled to
// microseconds by timeUnit (e.g. pass 1 when times are in seconds to get
// seconds→µs×1, or any constant — the viewer only needs consistency).
func WriteChromeTrace(w io.Writer, events []TraceEvent, timeUnit float64) error {
	type chromeEvent struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Task.Name(),
			Cat:  e.Task.Kind.String(),
			Ph:   "X",
			Ts:   e.Start * timeUnit,
			Dur:  (e.End - e.Start) * timeUnit,
			Pid:  int(e.Task.Node),
			Tid:  e.Worker,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("sched: writing trace: %w", err)
	}
	return nil
}
