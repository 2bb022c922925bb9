(** Crash-safe file replacement.

    A writer that opens its target in place and dies midway (an
    exception, a full disk, a killed process) leaves a truncated file
    behind, and the previous contents are gone.  [write] never exposes
    a partial file at the target path: readers see either the old
    contents or the complete new ones. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh temporary file next to [path]
    (same directory, so the final rename stays within one file system),
    closes it, then renames it over [path].  If [f], the close or the
    rename raises, the temporary file is removed, [path] is left as it
    was, and the exception is re-raised.  The file is created with the
    permissions [open_out] would give it.  A [path] that exists but is
    not a regular file (a device such as [/dev/stdout], a pipe) is
    written in place, as [open_out] would. *)
