package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// sse.go implements the server-sent-events side of the job stream: a
// subscription channel rendered as `event:`/`data:` frames, flushed per
// event, with comment heartbeats so intermediaries do not idle-close a
// quiet stream. The client-side parser lives in client.go.

// sseHeartbeat is the keepalive period of an idle event stream.
const sseHeartbeat = 15 * time.Second

// serveSSE streams ch to w until it has written the terminal event,
// which the channel's close follows, or the channel closes, or the
// client goes away. Returns whether the stream completed (terminal
// event delivered): a client that hangs up once it has read the
// terminal event has not broken its stream.
func serveSSE(w http.ResponseWriter, r *http.Request, ch chan Event) bool {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "service: streaming unsupported by this connection", http.StatusNotImplemented)
		return false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return false
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return false
			}
			fl.Flush()
		case ev, ok := <-ch:
			if !ok {
				return true
			}
			if err := writeEvent(w, ev); err != nil {
				return false
			}
			fl.Flush()
			if JobState(ev.Name).Terminal() {
				return true
			}
		}
	}
}

// writeEvent renders one SSE frame. Payloads are single-line JSON, so
// one data: field suffices.
func writeEvent(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev.Status)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, data)
	return err
}
