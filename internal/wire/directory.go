package wire

import "fmt"

// Directory payload layout (inside a KindDirectory frame), version 1 —
// one replicated peer-directory update, the log-entry payload of the
// continuous-churn control plane (DESIGN.md §14). FedAvg-layer leaders
// propose these; every member applies them deterministically, so the
// byte layout is a compatibility contract exactly like the other kinds:
//
//	op        u8 (1 = join, 2 = leave)
//	id        u64 peer id
//	subgroup  u32
//	shareIdx  u32 (join: the index the proposer assigned; leave: the
//	          index being released)
//	addr      string (u32 length + bytes)
//
// DirectoryUpdate mirrors the directory package's update struct; that
// package imports wire (wire stays dependency-free).

// Directory update operations.
const (
	// DirJoin admits a peer into a subgroup with a share index.
	DirJoin uint8 = 1
	// DirLeave removes a peer and releases its share index.
	DirLeave uint8 = 2
)

// DirectoryUpdate is one peer-directory log entry.
type DirectoryUpdate struct {
	Op         uint8
	ID         uint64
	Subgroup   int
	ShareIndex int
	Addr       string
}

// DirectoryPayloadSize returns the exact encoded payload size of an
// update whose address has addrLen bytes.
func DirectoryPayloadSize(addrLen int) int {
	return 1 + 8 + 4 + 4 + 4 + addrLen
}

// AppendDirectoryFrame appends a complete frame for one directory
// update.
func AppendDirectoryFrame(dst []byte, u DirectoryUpdate) []byte {
	dst = AppendHeader(dst, KindDirectory, DirectoryPayloadSize(len(u.Addr)))
	dst = append(dst, u.Op)
	dst = appendUint64(dst, u.ID)
	dst = appendUint32(dst, uint32(u.Subgroup))
	dst = appendUint32(dst, uint32(u.ShareIndex))
	return appendString(dst, u.Addr)
}

// DecodeDirectoryPayload decodes a KindDirectory payload. The address
// string is copied out of b.
func DecodeDirectoryPayload(b []byte) (DirectoryUpdate, error) {
	var u DirectoryUpdate
	if len(b) < 1 {
		return u, fmt.Errorf("%w: empty directory payload", ErrTruncated)
	}
	u.Op = b[0]
	if u.Op != DirJoin && u.Op != DirLeave {
		return u, fmt.Errorf("%w: directory op %d", ErrBadFrame, u.Op)
	}
	b = b[1:]
	var err error
	if u.ID, b, err = readUint64(b); err != nil {
		return u, err
	}
	var v uint32
	if v, b, err = readUint32(b); err != nil {
		return u, err
	}
	u.Subgroup = int(v)
	if v, b, err = readUint32(b); err != nil {
		return u, err
	}
	u.ShareIndex = int(v)
	if u.Addr, b, err = readString(b); err != nil {
		return u, err
	}
	if len(b) != 0 {
		return u, fmt.Errorf("%w: %d trailing bytes after directory payload", ErrBadFrame, len(b))
	}
	return u, nil
}
