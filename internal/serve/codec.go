package serve

import (
	"encoding/binary"
	"fmt"
)

// The batch payload codec shared by the write-ahead log and the snapshot.
// A batch is a client-assigned 64-bit id plus a list of observation rows,
// each row the sorted infected-node ids. Rows are delta-encoded: the first
// id raw, every later id as the (strictly positive) gap to its predecessor,
// all as uvarints. The encoding is canonical — a batch has exactly one
// byte representation — which keeps WAL replay and snapshot diffs exact.

// batch is one ingest unit: the client id used for dedup and the rows.
type batch struct {
	id   uint64
	rows [][]int32
}

// uvarint decodes a MINIMAL uvarint: binary.Uvarint accepts zero-padded
// encodings (0x80 0x00 for 0), which would give a batch more than one byte
// form and break the canonical-encoding invariant the WAL and snapshot
// rely on. A non-minimal encoding always ends in a zero byte (its most
// significant group is empty), so that is the whole check.
func uvarint(buf []byte) (uint64, int) {
	v, k := binary.Uvarint(buf)
	if k > 1 && buf[k-1] == 0 {
		return 0, 0
	}
	return v, k
}

// appendBatchPayload appends the canonical encoding of (id, rows) to dst.
// Rows must already be sorted ascending with no duplicates (validateRows).
func appendBatchPayload(dst []byte, id uint64, rows [][]int32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		prev := int32(-1)
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v-prev))
			prev = v
		}
	}
	return dst
}

// decodeBatchPayload decodes one canonical batch payload. n bounds node ids;
// every malformed shape (short buffer, trailing bytes, id out of range,
// non-increasing ids) is an error, so a corrupt WAL frame can never half-
// apply.
func decodeBatchPayload(buf []byte, n int) (batch, error) {
	var b batch
	if len(buf) < 8 {
		return b, fmt.Errorf("serve: batch payload too short (%d bytes)", len(buf))
	}
	b.id = binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	rowCount, k := uvarint(buf)
	if k <= 0 || rowCount > uint64(len(buf)) {
		return b, fmt.Errorf("serve: bad row count")
	}
	buf = buf[k:]
	b.rows = make([][]int32, 0, rowCount)
	for r := uint64(0); r < rowCount; r++ {
		size, k := uvarint(buf)
		if k <= 0 || size > uint64(len(buf)) || size > uint64(n) {
			return b, fmt.Errorf("serve: bad row size in row %d", r)
		}
		buf = buf[k:]
		row := make([]int32, 0, size)
		prev := int64(-1)
		for s := uint64(0); s < size; s++ {
			gap, k := uvarint(buf)
			// ids are < n and prev ≥ -1, so a valid gap is ≤ n; anything
			// larger would also overflow the int64 addition below.
			if k <= 0 || gap == 0 || gap > uint64(n) {
				return b, fmt.Errorf("serve: bad id gap in row %d", r)
			}
			buf = buf[k:]
			id := prev + int64(gap)
			if id >= int64(n) {
				return b, fmt.Errorf("serve: node id %d out of range [0,%d) in row %d", id, n, r)
			}
			row = append(row, int32(id))
			prev = id
		}
		b.rows = append(b.rows, row)
	}
	if len(buf) != 0 {
		return b, fmt.Errorf("serve: %d trailing bytes after batch payload", len(buf))
	}
	return b, nil
}

// validateRows checks and canonicalizes client rows in place: each row is
// sorted, then rejected if any id is out of [0, n) or duplicated. Returns
// the total row count.
func validateRows(rows [][]int32, n int) (int, error) {
	for ri, row := range rows {
		for k, v := range row {
			if v < 0 || int(v) >= n {
				return 0, fmt.Errorf("row %d: node id %d out of range [0,%d)", ri, v, n)
			}
			// Insertion sort: ingest rows are usually near-sorted and short.
			for j := k; j > 0 && row[j-1] > row[j]; j-- {
				row[j-1], row[j] = row[j], row[j-1]
			}
		}
		for k := 1; k < len(row); k++ {
			if row[k] == row[k-1] {
				return 0, fmt.Errorf("row %d: duplicate node id %d", ri, row[k])
			}
		}
	}
	return len(rows), nil
}
