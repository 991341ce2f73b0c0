(** Sequential reference interpreter of pattern-IR programs.

    This is the semantic oracle of the whole reproduction: every simulated
    GPU execution is checked against it, and its operation counts feed the
    multi-core CPU cost model used as the baseline of paper Figure 14. *)

type counts = {
  ops : float;  (** scalar arithmetic operations executed *)
  bytes : float;  (** bytes read + written on global buffers *)
}

val run :
  ?params:(string * int) list ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Host.data ->
  Ppat_ir.Host.data * counts
(** Execute the whole program (all host steps) over the given input data.
    Buffers absent from the input are zero-initialised. Returns the final
    contents of every program buffer, in program buffer order, together
    with execution counts.

    Filter outputs are compacted in index order; group-by outputs are
    ordered by key segment and, within a segment, by input index — the
    canonical orders against which unordered GPU results are normalised.

    The program is resolved once before it runs: names become slots and
    every expression gets a static type. So a type error (int + float, a
    bool compared with an int, a variable assigned a different type than
    it was bound with) or an unbound name fails before anything executes,
    even on a branch that would never run. Out-of-bounds accesses,
    division by zero, out-of-range group keys and runaway loops fail
    when they happen.

    @raise Failure on semantic errors, with the message
    ["oracle: <path>: <reason>"], where [<path>] is the label path of the
    failing pattern (e.g. ["p0/p3"]) or ["host"] for host steps. *)
