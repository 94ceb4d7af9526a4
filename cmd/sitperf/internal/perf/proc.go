package perf

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childLimit bounds a server child's whole life beyond the measured window:
// set-up, warm-up and shutdown take seconds, so a child alive this much
// longer than the window hangs and is killed.
const childLimit = 120 * time.Second

// serverProc is a running server child as the load generator sees it.
type serverProc struct {
	Ready
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	cancel context.CancelFunc
	ctl    *http.Client
}

// startServer starts `exe -serve` and waits until its listener is up. It
// returns the set-up time: from just before the process started to its
// Ready line.
func startServer(exe string, traced bool, window time.Duration, stderr io.Writer) (*serverProc, time.Duration, error) {
	args := []string{"-serve"}
	if traced {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+childLimit)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		cancel()
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	p := &serverProc{cmd: cmd, stdin: stdin, cancel: cancel, ctl: &http.Client{Timeout: 60 * time.Second}}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	setup := time.Since(start)
	if err == nil {
		err = json.Unmarshal(line, &p.Ready)
	}
	if err != nil {
		cmd.Process.Kill()
		p.Stop()
		return nil, 0, fmt.Errorf("server did not report ready: %w", err)
	}
	return p, setup, nil
}

// Stop closes the child's stdin, which shuts it down, and waits for it to
// exit; a child that has not exited after 30 s is killed.
func (p *serverProc) Stop() error {
	defer p.cancel()
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("server did not shut down within 30 s")
	}
}

func (p *serverProc) call(path string, body string, out any) error {
	resp, err := p.ctl.Post(p.Control+path, "text/plain", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// begin marks the start of the measured window in the server.
func (p *serverProc) begin() error { return p.call("/begin", "", nil) }

// end marks the end of the measured window and returns what the server
// measured over it.
func (p *serverProc) end() (ServerWindow, error) {
	var w ServerWindow
	err := p.call("/end", "", &w)
	return w, err
}

// observe reports a read's exact cardinality to the server's lifecycle
// manager and returns once the rebuilds it caused are swapped in.
func (p *serverProc) observe(gen uint64, text string, card, truth float64) (Observation, error) {
	v := url.Values{}
	v.Set("gen", strconv.FormatUint(gen, 10))
	v.Set("card", strconv.FormatFloat(card, 'g', -1, 64))
	v.Set("truth", strconv.FormatFloat(truth, 'g', -1, 64))
	var o Observation
	err := p.call("/observe?"+v.Encode(), text, &o)
	return o, err
}
