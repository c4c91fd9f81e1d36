//! Advisory cross-process file locks.
//!
//! Wraps `flock(2)` on Unix: a [`FileLock`] holds an exclusive advisory
//! lock on a named lock file for as long as the value lives. The lock is
//! released on [`Drop`] *and* automatically by the kernel if the process
//! dies, which is why this is built on `flock` rather than `O_EXCL`
//! create-files (a crashed writer must never wedge the next one).
//!
//! Two call shapes cover the workspace's needs:
//!
//! * [`FileLock::acquire`] — block until the lock is ours. Used by the
//!   graph-cache cold path: the loser of a cold-load race waits for the
//!   winner to finish writing `.csrbin`, then loads the winner's cache.
//! * [`FileLock::try_acquire`] — return `Ok(None)` immediately if another
//!   holder exists. Used by the campaign store to fail fast with a named
//!   error when a second writer attaches to the same campaign directory.
//!
//! Locks are *advisory*: they only exclude other `FileLock` users (and
//! other `flock` callers), not arbitrary file access. On non-Unix targets
//! the lock degrades to creating the lock file without kernel-level
//! exclusion — best effort, documented, and irrelevant to the CI targets.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

/// An exclusive advisory lock on a lock file, held until dropped.
#[derive(Debug)]
pub struct FileLock {
    /// Keeps the descriptor (and therefore the `flock`) alive.
    _file: File,
    path: PathBuf,
}

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    /// Blocking exclusive `flock`; retries on EINTR.
    pub fn lock_exclusive(file: &File) -> io::Result<()> {
        loop {
            let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX) };
            if rc == 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Non-blocking exclusive `flock`; `Ok(false)` means "held elsewhere".
    pub fn try_lock_exclusive(file: &File) -> io::Result<bool> {
        let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
        if rc == 0 {
            return Ok(true);
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            // EWOULDBLOCK / EAGAIN: another process holds the lock.
            Some(11) => Ok(false),
            _ if err.kind() == io::ErrorKind::WouldBlock => Ok(false),
            _ => Err(err),
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    // Best effort on non-Unix targets: the lock file exists but offers no
    // kernel-level exclusion. All supported deployment targets are Unix.
    pub fn lock_exclusive(_file: &File) -> io::Result<()> {
        Ok(())
    }

    pub fn try_lock_exclusive(_file: &File) -> io::Result<bool> {
        Ok(true)
    }
}

impl FileLock {
    fn open_lock_file(path: &Path) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
    }

    /// Blocks until an exclusive lock on `path` is acquired.
    ///
    /// The lock file is created if missing and never removed — removal
    /// would race a concurrent acquirer that already opened the old
    /// inode. A stale zero-byte `.lock` file is harmless.
    pub fn acquire(path: &Path) -> io::Result<FileLock> {
        let file = Self::open_lock_file(path)?;
        sys::lock_exclusive(&file)?;
        Ok(FileLock {
            _file: file,
            path: path.to_path_buf(),
        })
    }

    /// Attempts the lock without blocking; `Ok(None)` means another
    /// process (or another handle in this process) currently holds it.
    pub fn try_acquire(path: &Path) -> io::Result<Option<FileLock>> {
        let file = Self::open_lock_file(path)?;
        if sys::try_lock_exclusive(&file)? {
            Ok(Some(FileLock {
                _file: file,
                path: path.to_path_buf(),
            }))
        } else {
            Ok(None)
        }
    }

    /// The lock file path this lock holds.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// Dropping the File releases the flock; nothing else to do. The explicit
// impl exists so the release point is greppable and documented.
impl Drop for FileLock {
    fn drop(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_lock_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cobra-lockfile-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn acquire_then_reacquire_after_drop() {
        let path = temp_lock_path("reacquire");
        let lock = FileLock::acquire(&path).unwrap();
        assert_eq!(lock.path(), path.as_path());
        drop(lock);
        let again = FileLock::acquire(&path).unwrap();
        drop(again);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn try_acquire_fails_while_held() {
        let path = temp_lock_path("contend");
        let held = FileLock::acquire(&path).unwrap();
        // flock is per-open-file-description, so a second open in the
        // same process contends exactly like another process would.
        assert!(FileLock::try_acquire(&path).unwrap().is_none());
        drop(held);
        assert!(FileLock::try_acquire(&path).unwrap().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn blocking_acquire_waits_for_release() {
        let path = temp_lock_path("blocking");
        let held = FileLock::acquire(&path).unwrap();
        let path2 = path.clone();
        let waiter = std::thread::spawn(move || {
            let lock = FileLock::acquire(&path2).unwrap();
            drop(lock);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(held); // unblocks the waiter
        waiter.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
