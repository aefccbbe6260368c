package runstate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"reflect"
)

// The file frame is the magic, the little-endian uint16 FormatVersion,
// the payload, and a trailing CRC32-IEEE over everything before it. The
// payload is the Snapshot in encoding/gob: gob matches fields by name,
// refuses a field whose type changed, caps the first allocation for a
// claimed slice length and grows the slice only as its elements decode,
// so a damaged length cannot force a large allocation.

const magic = "FDRS"

// encodeFile appends the framed snapshot to dst.
func encodeFile(dst []byte, s *Snapshot) []byte {
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint16(append(dst, magic...), FormatVersion))
	if err := gob.NewEncoder(buf).Encode(s); err != nil {
		// The section types hold only gob-encodable fields, so this is a
		// programming error, not a property of the data.
		panic(fmt.Sprintf("runstate: encoding snapshot: %v", err))
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes()))
}

// decodeFile verifies the frame and decodes the payload, mapping every
// failure mode to a typed sentinel.
func decodeFile(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+2+4 {
		return nil, fmt.Errorf("%w: %d-byte file is too short", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver := binary.LittleEndian.Uint16(data[len(magic):])
	if ver != FormatVersion {
		return nil, fmt.Errorf("%w: format v%d, this build reads v%d", ErrVersion, ver, FormatVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	payload := bytes.NewReader(body[len(magic)+2:])
	s := &Snapshot{}
	if err := gob.NewDecoder(payload).Decode(s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if payload.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, payload.Len())
	}
	if err := checkSections(reflect.ValueOf(s)); err != nil {
		return nil, err
	}
	return s, nil
}

// checkSections requires Version 1 of v and of every section reachable
// from it through struct fields and non-nil pointers, so a snapshot
// whose layout has moved on is ErrVersion rather than misread. Slices
// hold Rec rows, which their section versions.
func checkSections(v reflect.Value) error {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil
	}
	if ver := v.FieldByName("Version"); ver.IsValid() && ver.Uint() != 1 {
		return fmt.Errorf("%w: section %s is v%d, this build reads v1", ErrVersion, v.Type().Name(), ver.Uint())
	}
	for i := 0; i < v.NumField(); i++ {
		if err := checkSections(v.Field(i)); err != nil {
			return err
		}
	}
	return nil
}
