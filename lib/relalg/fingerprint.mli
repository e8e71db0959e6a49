(** Structural plan fingerprint.

    An id-insensitive, otherwise exact rendering of a plan: column ids
    are renumbered by first occurrence, while tables, the columns of
    scans and segment holes (by position and type), constant-table
    rows and literals (floats bit-exactly) are all kept.  Two trees equal up to column identity share a fingerprint;
    any other difference separates them.  The plan search deduplicates
    on it and the CSE store derives entry ids from it. *)

open Algebra

val of_op : op -> string
