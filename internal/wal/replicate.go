// Replication wire format: a primary ships its per-session WAL
// records to replicas as batches over POST /v1/replicate. A batch
// reuses the log's record encoding and CRC-32C framing verbatim, so a
// replica validates the stream with the same machinery recovery uses,
// and the record's LSN slot carries the per-session replication
// sequence number (1-based, dense, assigned by the primary).
//
// Batch layout:
//
//	"STRB" u16 version
//	str source | str sessionID | str patientID   (uvarint len + bytes)
//	uvarint epoch | uvarint firstSeq | uvarint count
//	count x (u32 payload len | u32 CRC-32C | record payload)
//
// Gap safety: records inside a batch must be seq-contiguous (enforced
// at decode), and a Cursor refuses any batch that would skip past its
// next expected sequence — out-of-order records are never applied.
// A catch-up — every link's first shipment and the answer to a gap —
// is the session's own records, and its leading stream-open
// (re)establishes the cursor wherever the primary says. Epochs fence
// deposed primaries: a batch with an epoch below the cursor's is
// rejected outright. A follower applies what its cursor accepts with
// Replay, the interpreter recovery uses.

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stsmatch/internal/binfmt"
)

const (
	batchMagic = "STRB"
	// batchVersion 3 catches up with the session's own records,
	// version 2 with the retired type 6; a version-2 batch is refused.
	batchVersion = 3
)

// Batch is one replication shipment for a single session.
type Batch struct {
	// Source is the shipping primary's advertised base URL (matched
	// against the follower's accept-list when one is configured).
	Source string
	// SessionID / PatientID identify the replicated session.
	SessionID string
	PatientID string
	// Epoch is the primary's fencing term; promotions increment it.
	Epoch uint64
	// FirstSeq is the sequence number of Records[0]; records are dense,
	// so Records[i] has sequence FirstSeq+i (carried in the LSN slot).
	FirstSeq uint64
	// Records are the shipped records in sequence order.
	Records []Record
}

// EncodeBatch serializes a batch. Records' LSN fields are overwritten
// with FirstSeq+i so the wire sequence is dense by construction.
func EncodeBatch(b Batch) []byte {
	out := make([]byte, 0, 64+len(b.Records)*64)
	out = binfmt.AppendHeader(out, batchMagic, batchVersion)
	out = binfmt.AppendString(out, b.Source)
	out = binfmt.AppendString(out, b.SessionID)
	out = binfmt.AppendString(out, b.PatientID)
	out = binary.AppendUvarint(out, b.Epoch)
	out = binary.AppendUvarint(out, b.FirstSeq)
	out = binary.AppendUvarint(out, uint64(len(b.Records)))
	for i, rec := range b.Records {
		rec.LSN = b.FirstSeq + uint64(i)
		out = appendFrame(out, encodePayload(rec))
	}
	return out
}

// DecodeBatch parses and validates a batch: magic, version, CRC of
// every record frame, and sequence density (record i must carry
// sequence FirstSeq+i). Anything malformed returns an error wrapping
// ErrTorn; a valid batch can be handed to Cursor.Accept.
func DecodeBatch(data []byte) (Batch, error) {
	var b Batch
	d := binfmt.NewDecoder(data)
	d.Header(batchMagic, batchVersion)
	b.Source = d.Str()
	b.SessionID = d.Str()
	b.PatientID = d.Str()
	b.Epoch = d.Uvarint()
	b.FirstSeq = d.Uvarint()
	// A record frame is at least its header, a type byte and an LSN.
	n := d.Count(frameHeaderLen + 2)
	if err := d.Err(); err != nil {
		return b, torn(err)
	}
	b.Records = make([]Record, 0, n)
	rest := d.Rest()
	for i := range uint64(n) {
		payload, tail, err := splitFrame(rest)
		if err != nil {
			return b, fmt.Errorf("%w: record %d: %v", ErrTorn, i, err)
		}
		rest = tail
		rec, err := decodePayload(payload)
		if err != nil {
			return b, fmt.Errorf("%w: record %d: %v", ErrTorn, i, err)
		}
		if rec.LSN != b.FirstSeq+i {
			return b, fmt.Errorf("%w: record %d carries seq %d, want %d (batch not dense)",
				ErrTorn, i, rec.LSN, b.FirstSeq+i)
		}
		b.Records = append(b.Records, rec)
	}
	if len(rest) != 0 {
		return b, fmt.Errorf("%w: %d trailing bytes after batch", ErrTorn, len(rest))
	}
	return b, nil
}

// ErrGap reports a batch whose sequence range does not connect to the
// cursor: applying it would skip records. The follower answers 409 and
// the primary falls back to catch-up.
var ErrGap = errors.New("wal: replication sequence gap")

// ErrStaleEpoch reports a batch from a deposed primary (its epoch is
// below the cursor's). Nothing from it may be applied.
var ErrStaleEpoch = errors.New("wal: stale replication epoch")

// Cursor is a follower's per-session replication position: the next
// expected sequence number and the highest epoch accepted so far. The
// zero value accepts a stream that starts at sequence 1 (or any
// catch-up). Cursor is not safe for concurrent use; the server
// serializes Accept per session.
type Cursor struct {
	Next  uint64 // next expected sequence (0 and 1 both mean "at start")
	Epoch uint64 // highest epoch seen
}

// Accept validates a batch against the cursor and returns the records
// to apply, in order: duplicates below the cursor are dropped, a
// stream-open (a catch-up's first record) resets the cursor to its own
// sequence, and any batch
// that would leave a hole fails with ErrGap (out-of-order records are
// never returned). Sequence numbers are derived from FirstSeq (batches
// are dense by construction), and each returned record's LSN is set to
// its sequence. On error the cursor is unchanged; on success it
// advances past the batch.
func (c *Cursor) Accept(b Batch) ([]Record, error) {
	if b.Epoch < c.Epoch {
		return nil, fmt.Errorf("%w: batch epoch %d < current %d", ErrStaleEpoch, b.Epoch, c.Epoch)
	}
	next := c.Next
	if next == 0 {
		next = 1
	}
	// A higher epoch means a new primary whose sequence numbering has no
	// relation to ours: only a catch-up can re-establish position. A
	// cursor that has never accepted anything (Next == 0) has no position
	// to lose, so it takes the stream at whatever epoch it starts at.
	synced := b.Epoch == c.Epoch || c.Next == 0
	apply := make([]Record, 0, len(b.Records))
	for i, rec := range b.Records {
		rec.LSN = b.FirstSeq + uint64(i)
		if rec.Type == TypeStreamOpen {
			next = rec.LSN + 1
			synced = true
			apply = append(apply, rec)
			continue
		}
		if !synced {
			return nil, fmt.Errorf("%w: epoch advanced to %d without a catch-up", ErrGap, b.Epoch)
		}
		switch {
		case rec.LSN < next: // duplicate of an already-applied record
		case rec.LSN > next:
			return nil, fmt.Errorf("%w: next expected %d, batch offers %d", ErrGap, next, rec.LSN)
		default:
			apply = append(apply, rec)
			next++
		}
	}
	if !synced {
		// An empty batch from a new epoch carries no stream-open to
		// anchor the new primary's numbering; force catch-up instead.
		return nil, fmt.Errorf("%w: epoch advanced to %d without a catch-up", ErrGap, b.Epoch)
	}
	c.Next = next
	c.Epoch = b.Epoch
	return apply, nil
}
