package service

import (
	"encoding/json"

	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// storeSink is the transport boundary between the Runner and the service:
// an experiment.Sink that keeps the job's progress counters current and fans
// progress events out to SSE subscribers. It persists no rows: the Runner
// has already written each cell's result into the shared result cache when
// it emits the cell, and the results stream reads them from there. Because
// the Runner drives sinks in strict index order, a progress event's
// Completed count is always a prefix the stream can serve.
type storeSink struct {
	store *store.Store
	hub   *hub
	jobID string

	cells     int
	completed int
	summary   experiment.RunSummary
}

// progressEvent is the SSE "progress" payload.
type progressEvent struct {
	JobID     string `json:"jobId"`
	Index     int    `json:"index"`
	Completed int    `json:"completed"`
	Cells     int    `json:"cells"`
	Cached    bool   `json:"cached"`
}

// OnStart implements experiment.Sink: record the job's cell count.
func (s *storeSink) OnStart(plan experiment.Plan) error {
	s.cells = len(plan.Scenarios)
	s.completed = 0
	_, err := s.store.UpdateJob(s.jobID, false, func(j *store.Job) {
		j.Cells = s.cells
		j.Completed = 0
	})
	return err
}

// OnResult implements experiment.Sink: count the cell and publish its
// progress event.
func (s *storeSink) OnResult(r experiment.ScenarioResult) error {
	s.completed++
	if _, err := s.store.UpdateJob(s.jobID, false, func(j *store.Job) {
		j.Completed = s.completed
	}); err != nil {
		return err
	}
	data, err := json.Marshal(progressEvent{
		JobID:     s.jobID,
		Index:     r.Scenario.Index,
		Completed: s.completed,
		Cells:     s.cells,
		Cached:    r.Cached,
	})
	if err != nil {
		return err
	}
	s.hub.publish(s.jobID, event{name: "progress", data: data})
	return nil
}

// OnFinish implements experiment.Sink: capture the summary so the scheduler
// can fold it into the terminal job record.
func (s *storeSink) OnFinish(sum experiment.RunSummary) error {
	s.summary = sum
	return nil
}
