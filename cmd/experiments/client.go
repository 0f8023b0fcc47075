package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"iotmpc/internal/experiment"
	"iotmpc/internal/store"
)

// This file is the -server client: instead of executing a matrix locally,
// the CLI submits it to a sweepd v1 job API, polls the job to completion,
// and streams the results back through the same output sinks. With -out
// jsonl the bytes are copied straight from the HTTP response, so the
// artifact is byte-identical to a local run's. The `jobs` and `cancel`
// subcommands expose the rest of the v1 surface: filtered job listing and
// cancellation.

// pollInterval is how often the client re-reads the job while waiting.
const pollInterval = 150 * time.Millisecond

// apiError decodes the service's typed error envelope
// {"error":{"code","field","message"}} into a readable "field: message"
// error, falling back to the pre-v1 {"error": "..."} string shape so the
// client still degrades gracefully against an old daemon.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var envelope struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &envelope) == nil && len(envelope.Error) > 0 {
		var typed struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		}
		if json.Unmarshal(envelope.Error, &typed) == nil && typed.Message != "" {
			if typed.Field != "" {
				return fmt.Errorf("server: %s: %s (HTTP %d, %s)", typed.Field, typed.Message, resp.StatusCode, typed.Code)
			}
			return fmt.Errorf("server: %s (HTTP %d, %s)", typed.Message, resp.StatusCode, typed.Code)
		}
		var legacy string
		if json.Unmarshal(envelope.Error, &legacy) == nil && legacy != "" {
			return fmt.Errorf("server: %s (HTTP %d)", legacy, resp.StatusCode)
		}
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

// submitJob POSTs the matrix spec and returns the created job record.
func submitJob(ctx context.Context, base string, m experiment.Matrix) (store.Job, error) {
	var job store.Job
	spec, err := json.Marshal(m)
	if err != nil {
		return job, err
	}
	resp, err := transientRetry.do(ctx, http.DefaultClient, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(spec))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return job, fmt.Errorf("submit to %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return job, apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return job, fmt.Errorf("decode job: %w", err)
	}
	return job, nil
}

// getJob reads one job record.
func getJob(ctx context.Context, base, id string) (store.Job, error) {
	var job store.Job
	resp, err := transientRetry.do(ctx, http.DefaultClient, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	})
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return job, apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return job, fmt.Errorf("decode job: %w", err)
	}
	return job, nil
}

// runServerMatrix submits the matrix, waits for the job, and streams the
// results through the -out sink.
func runServerMatrix(ctx context.Context, mf matrixFlags, m experiment.Matrix) error {
	base := strings.TrimSuffix(mf.server, "/")
	job, err := submitJob(ctx, base, m)
	if err != nil {
		return err
	}
	if mf.progress {
		fmt.Fprintf(os.Stderr, "submitted job %s (%d cells) to %s\n", job.ID, job.Cells, base)
	}
	job, err = waitForJob(ctx, base, job.ID, mf.progress)
	if err != nil {
		return err
	}
	return streamResults(ctx, base, job, mf, m)
}

// waitForJob polls until the job reaches a terminal state. An interrupt
// while waiting does NOT cancel the job — it keeps running on the server,
// and the results stay fetchable.
func waitForJob(ctx context.Context, base, id string, progress bool) (store.Job, error) {
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	lastCompleted := -1
	for {
		job, err := getJob(ctx, base, id)
		if err != nil {
			if ctx.Err() != nil {
				return job, fmt.Errorf("interrupted: job %s continues on the server; its results stay fetchable at %s/v1/jobs/%s/results", id, base, id)
			}
			return job, err
		}
		if progress && job.Completed != lastCompleted {
			lastCompleted = job.Completed
			fmt.Fprintf(os.Stderr, "job %s: %s, %d/%d cells\n", job.ID, job.State, job.Completed, job.Cells)
		}
		switch job.State {
		case store.Done:
			return job, nil
		case store.Failed:
			return job, fmt.Errorf("job %s failed: %s", job.ID, job.Error)
		case store.Canceled:
			return job, fmt.Errorf("job %s canceled: %s (its partial results stay fetchable at %s/v1/jobs/%s/results)", job.ID, job.Error, base, id)
		}
		select {
		case <-ctx.Done():
			return job, fmt.Errorf("interrupted: job %s continues on the server; its results stay fetchable at %s/v1/jobs/%s/results", id, base, id)
		case <-ticker.C:
		}
	}
}

// streamResults fetches the finished job's JSONL and renders it in the
// requested format. JSONL is a raw byte copy of the response — the server
// streams exactly the bytes a local `-out jsonl` run prints; table and CSV
// decode each row and drive the ordinary sinks.
func streamResults(ctx context.Context, base string, job store.Job, mf matrixFlags, m experiment.Matrix) error {
	resp, err := transientRetry.do(ctx, http.DefaultClient, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+job.ID+"/results", nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if mf.out == "jsonl" {
		_, err := io.Copy(os.Stdout, resp.Body)
		return err
	}
	sink, err := outputSink(mf.out)
	if err != nil {
		return err
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		return err
	}
	if err := sink.OnStart(experiment.Plan{Scenarios: scenarios, CacheHits: job.CacheHits}); err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	rows := 0
	for sc.Scan() {
		var r experiment.ScenarioResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("decode result row %d: %w", rows, err)
		}
		if err := sink.OnResult(r); err != nil {
			return err
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return sink.OnFinish(experiment.RunSummary{
		Cells:     job.Cells,
		CacheHits: job.CacheHits,
		Computed:  job.Computed,
		Resumed:   job.Resumed,
	})
}

// cancelJob DELETEs the job: 200 means it was killed (or already canceled)
// on the spot, 202 means a running job is draining toward canceled.
func cancelJob(ctx context.Context, base, id string) (store.Job, bool, error) {
	var job store.Job
	resp, err := transientRetry.do(ctx, http.DefaultClient, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+id, nil)
	})
	if err != nil {
		return job, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return job, false, apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return job, false, fmt.Errorf("decode job: %w", err)
	}
	return job, resp.StatusCode == http.StatusAccepted, nil
}

// jobPage mirrors the GET /v1/jobs response body.
type jobPage struct {
	Jobs      []store.Job `json:"jobs"`
	NextAfter string      `json:"nextAfter"`
}

// listJobs fetches one page of GET /v1/jobs?state&limit&after.
func listJobs(ctx context.Context, base, state string, limit int, after string) (jobPage, error) {
	var page jobPage
	u, err := url.Parse(base + "/v1/jobs")
	if err != nil {
		return page, err
	}
	q := u.Query()
	if state != "" {
		q.Set("state", state)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if after != "" {
		q.Set("after", after)
	}
	u.RawQuery = q.Encode()
	resp, err := transientRetry.do(ctx, http.DefaultClient, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	})
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page, apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return page, fmt.Errorf("decode job list: %w", err)
	}
	return page, nil
}

// runJobsCmd is `experiments jobs -server URL [-state S] [-limit N]
// [-after ID]`: a filtered, paginated job listing printed one line per job.
func runJobsCmd(args []string) error {
	fs := flag.NewFlagSet("experiments jobs", flag.ContinueOnError)
	var (
		server = fs.String("server", "", "sweepd base URL (required)")
		state  = fs.String("state", "", "filter: queued, running, done, failed, canceled")
		limit  = fs.Int("limit", 0, "page size (server default 100)")
		after  = fs.String("after", "", "resume listing after this job ID")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("jobs needs -server (the sweepd base URL)")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("jobs takes no positional arguments (got %q)", fs.Arg(0))
	}
	page, err := listJobs(context.Background(), strings.TrimSuffix(*server, "/"), *state, *limit, *after)
	if err != nil {
		return err
	}
	for _, job := range page.Jobs {
		line := fmt.Sprintf("%s  %-8s  %d/%d cells", job.ID, job.State, job.Completed, job.Cells)
		if job.Error != "" {
			line += "  " + job.Error
		}
		fmt.Println(line)
	}
	if page.NextAfter != "" {
		fmt.Fprintf(os.Stderr, "more: rerun with -after %s\n", page.NextAfter)
	}
	return nil
}

// runCancelCmd is `experiments cancel -server URL JOB_ID`: cancel a queued
// or running job and report where it landed.
func runCancelCmd(args []string) error {
	fs := flag.NewFlagSet("experiments cancel", flag.ContinueOnError)
	server := fs.String("server", "", "sweepd base URL (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("cancel needs -server (the sweepd base URL)")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cancel takes exactly one job ID (got %d arguments)", fs.NArg())
	}
	base := strings.TrimSuffix(*server, "/")
	id := fs.Arg(0)
	job, draining, err := cancelJob(context.Background(), base, id)
	if err != nil {
		return err
	}
	if draining {
		fmt.Printf("job %s: cancellation requested, draining (watch %s/v1/jobs/%s)\n", job.ID, base, job.ID)
		return nil
	}
	fmt.Printf("job %s: %s\n", job.ID, job.State)
	return nil
}
