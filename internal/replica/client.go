package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"viewupdate/internal/persist"
)

// ErrSnapshotRequired marks a stream resumption the source refused
// because the requested watermark predates its snapshot: the WAL
// records below it were folded away by a checkpoint. The follower must
// re-bootstrap from a fresh snapshot.
var ErrSnapshotRequired = errors.New("replica: watermark below source snapshot, bootstrap required")

// A Client speaks the replication endpoints of one source server
// (primary or upstream follower — the protocol cascades) through
// http.DefaultClient, which imposes no overall timeout: streams are
// long-lived.
type Client struct {
	// Base is the source's base URL, e.g. "http://primary:8080".
	Base string
}

// FetchSnapshot downloads the source's current snapshot: its full
// state stamped with the applied-seq watermark the stream resumes
// from.
func (c *Client) FetchSnapshot(ctx context.Context) (*persist.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/wal/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("replica: snapshot: %s: %s", resp.Status, body)
	}
	var snap persist.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("replica: decoding snapshot: %w", err)
	}
	return &snap, nil
}

// Stream opens the WAL stream resuming after seq `from`. The returned
// body yields CRC-framed records (decode with wal.NewStreamReader)
// until the connection drops or the source sheds the tail. A 410
// answer surfaces as ErrSnapshotRequired.
func (c *Client) Stream(ctx context.Context, from uint64) (io.ReadCloser, error) {
	url := fmt.Sprintf("%s/wal/stream?from=%d", c.Base, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: opening stream: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp.Body, nil
	case http.StatusGone:
		resp.Body.Close()
		return nil, ErrSnapshotRequired
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("replica: stream: %s: %s", resp.Status, body)
	}
}
