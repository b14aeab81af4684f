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
// A TypeReplicaSnapshot record carries the session's complete state
// and (re)establishes the cursor wherever the primary says, which is
// the catch-up path after a gap and the first record a freshly
// promoted primary sends. Epochs fence deposed primaries: a batch
// with an epoch below the cursor's is rejected outright.

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	batchMagic   = "STRB"
	batchVersion = 1

	// maxBatchRecords bounds a single replication batch; primaries ship
	// per-ingest-call batches that are far smaller.
	maxBatchRecords = 1 << 16
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
	out = append(out, batchMagic...)
	out = binary.LittleEndian.AppendUint16(out, batchVersion)
	out = appendString(out, b.Source)
	out = appendString(out, b.SessionID)
	out = appendString(out, b.PatientID)
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
	body, err := checkHeader(data, batchMagic, batchVersion)
	if err != nil {
		return b, err
	}
	d := decoder{b: body}
	b.Source = d.str()
	b.SessionID = d.str()
	b.PatientID = d.str()
	b.Epoch = d.uvarint()
	b.FirstSeq = d.uvarint()
	n := d.uvarint()
	if d.err != nil {
		return b, d.err
	}
	if n > maxBatchRecords {
		return b, fmt.Errorf("%w: implausible batch of %d records", ErrTorn, n)
	}
	b.Records = make([]Record, 0, min(int(n), 4096))
	rest := body[d.off:]
	for i := uint64(0); i < n; i++ {
		var payload []byte
		if payload, rest, err = splitFrame(rest); err != nil {
			return b, fmt.Errorf("%w: record %d: %v", ErrTorn, i, err)
		}
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

// checkHeader strips the 4-byte magic and u16 version that open every
// wire message built on the record framing (replication batches, match
// legs) and returns what follows.
func checkHeader(data []byte, magic string, version uint16) ([]byte, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("%w: short %s header", ErrTorn, magic)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q, want %s", ErrTorn, data[:len(magic)], magic)
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: unsupported %s version %d", ErrTorn, magic, v)
	}
	return data[len(magic)+2:], nil
}

// ErrGap reports a batch whose sequence range does not connect to the
// cursor: applying it would skip records. The follower answers 409 and
// the primary falls back to snapshot catch-up.
var ErrGap = errors.New("wal: replication sequence gap")

// ErrStaleEpoch reports a batch from a deposed primary (its epoch is
// below the cursor's). Nothing from it may be applied.
var ErrStaleEpoch = errors.New("wal: stale replication epoch")

// Cursor is a follower's per-session replication position: the next
// expected sequence number and the highest epoch accepted so far. The
// zero value accepts a stream that starts at sequence 1 (or any
// snapshot). Cursor is not safe for concurrent use; the server
// serializes Accept per session.
type Cursor struct {
	Next  uint64 // next expected sequence (0 and 1 both mean "at start")
	Epoch uint64 // highest epoch seen
}

// Accept validates a batch against the cursor and returns the records
// to apply, in order: duplicates below the cursor are dropped, a
// snapshot record resets the cursor to its own sequence, and any batch
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
	// relation to ours: only a snapshot can re-establish position. A
	// cursor that has never accepted anything (Next == 0) has no position
	// to lose, so it takes the stream at whatever epoch it starts at.
	synced := b.Epoch == c.Epoch || c.Next == 0
	apply := make([]Record, 0, len(b.Records))
	for i, rec := range b.Records {
		rec.LSN = b.FirstSeq + uint64(i)
		if rec.Type == TypeReplicaSnapshot {
			next = rec.LSN + 1
			synced = true
			apply = append(apply, rec)
			continue
		}
		if !synced {
			return nil, fmt.Errorf("%w: epoch advanced to %d without a snapshot", ErrGap, b.Epoch)
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
		// An empty batch from a new epoch carries no snapshot to anchor
		// the new primary's numbering; force catch-up instead.
		return nil, fmt.Errorf("%w: epoch advanced to %d without a snapshot", ErrGap, b.Epoch)
	}
	c.Next = next
	c.Epoch = b.Epoch
	return apply, nil
}
