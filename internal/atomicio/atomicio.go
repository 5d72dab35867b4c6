// Package atomicio writes files atomically: content goes to a temporary
// file in the destination directory, is fsynced, and is renamed over the
// target in one step. A crash — kill -9 included — can therefore never
// leave a torn result file: readers see either the old complete content
// or the new complete content, nothing in between. Every result artifact
// the CLIs and the job server produce (tables, reports, metrics streams,
// repro files, snapshots, job artifacts) goes through this package.
package atomicio

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// WriteFile streams content produced by write into path atomically. The
// temporary file lives in path's directory so the final rename never
// crosses a filesystem boundary. On any error the temporary file is
// removed and the target is left untouched.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return nil
}

// WriteFileBytes writes data into path atomically.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
