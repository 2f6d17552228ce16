(** Site gates over the construct index (see gate.mli). *)

open Ir
module S = Mir.Site

let uaf s = S.all s (S.addr_local lor S.ptr_local)
let double_free s = S.any s (S.ptr_read lor S.from_raw2)
let invalid_free s = S.all s (S.drop_deref lor S.heap)
let invalid_free_uninit s = S.any s S.mem_uninit
let uninit s = S.any s (S.heap lor S.mem_uninit)
let uninit_set_len s = S.any s S.set_len
let null_deref s = S.any s S.null_src
let buffer s = S.any s S.unchecked
let double_lock s = S.any s S.lock
let lock_order s = S.any s S.lock2
let condvar s = S.any s S.condvar
let channel s = S.any s S.channel
let once s = S.any s S.call_once
let sync_misuse s = S.any s S.store_through
let atomicity s = S.all s (S.atomic_load lor S.atomic_store)
let atomicity_sessions s = S.any s S.lock2
let refcell s = S.any s S.refcell

let m_bodies =
  Support.Metrics.counter ~labels:[ "detector"; "outcome" ]
    ~help:"Bodies per detector run, by whether the construct index let \
           the detector in (visited) or kept it out (skipped)."
    "rustudy_detector_bodies_total"

let select ctx detector ~gate =
  let all = Mir.body_list (Analysis.Cache.program ctx) in
  let kept = List.filter (fun b -> gate (Analysis.Cache.sites ctx b)) all in
  if Support.Metrics.enabled () then begin
    let visited = List.length kept in
    Support.Metrics.incr m_bodies ~labels:[ detector; "visited" ]
      ~by:(float_of_int visited);
    Support.Metrics.incr m_bodies ~labels:[ detector; "skipped" ]
      ~by:(float_of_int (List.length all - visited))
  end;
  kept
