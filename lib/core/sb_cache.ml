module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Descriptor = Descriptor.Make (Rt)
  module Desc_pool = Desc_pool.Make (Rt)
  module Tis = Mm_lockfree.Tagged_id_stack.Make (Rt)


  (* Warm-superblock cache (DESIGN.md §14): one lock-free recycle stack of
     EMPTY descriptors per size class, bounded by a hysteresis watermark.
     A parked descriptor keeps its superblock bytes, its intact LIFO free
     list and its anchor tag, so adoption skips the mmap, the free-list
     initialization and the descriptor churn of MallocFromNewSB.

     Ownership protocol: only a thread holding exclusive ownership of an
     EMPTY descriptor (it removed the descriptor's last reference — the
     same precondition as Desc_pool.retire) may park it; the tag-bumping
     pop of the tagged stack confers the same exclusivity on the adopter
     that a DescAlloc pop would. Between park and adopt the descriptor
     stays live in the table with its anchor EMPTY, so stale CAS attempts
     from its previous life still fail on the preserved tag (the Fig. 5
     argument, unbroken).

     The watermark is maintained with a reserve-then-push discipline on a
     per-class counter: a parker increments first and backs off (overflow:
     the superblock is genuinely unmapped by the caller) if the cache is
     full, so at most [depth] descriptors are ever parked per class and
     Space peak accounting stays honest. *)

  type stats = { parks : int; adopts : int; overflows : int }

  type t = {
    rt : Rt.t;
    depth : int;
    table : Descriptor.table;
    stacks : Tis.t array;  (* per size class *)
    counts : int Rt.atomic array;  (* parked (or being parked) per class *)
    (* striped per-thread stats *)
    parks : int array;
    adopts : int array;
    overflows : int array;
  }

  let create rt ~depth ~nclasses ~table ?(on_park_retry = fun () -> ())
      ?(on_adopt_retry = fun () -> ()) () =
    if depth < 0 then invalid_arg "Sb_cache.create: depth must be >= 0";
    {
      rt;
      depth;
      table;
      stacks =
        Array.init nclasses (fun _ ->
            Tis.create rt ~push_label:Labels.sbc_park
              ~pop_label:Labels.sbc_adopt ~on_push_retry:on_park_retry
              ~on_pop_retry:on_adopt_retry
              ~get_next:(fun id -> (Descriptor.get table id).Descriptor.next_c)
              ~set_next:(fun id n ->
                (Descriptor.get table id).Descriptor.next_c <- n)
              ());
      counts = Array.init nclasses (fun _ -> Rt.Atomic.make rt 0);
      parks = Array.make Rt.max_threads 0;
      adopts = Array.make Rt.max_threads 0;
      overflows = Array.make Rt.max_threads 0;
    }

  let enabled t = t.depth > 0
  let depth t = t.depth

  let bump t arr =
    let tid = Rt.self t.rt in
    arr.(tid) <- arr.(tid) + 1

  let park t ~sc (d : Descriptor.t) =
    if t.depth = 0 then false
    else begin
      (* Reserve a slot under the watermark before publishing: the counter
         transiently overshoots the stack length (between this increment
         and the push), never the other way, so the bound is strict. *)
      let n = Rt.Atomic.fetch_and_add t.counts.(sc) 1 in
      if n >= t.depth then begin
        ignore (Rt.Atomic.fetch_and_add t.counts.(sc) (-1));
        bump t t.overflows;
        false
      end
      else begin
        Tis.push t.stacks.(sc) d.Descriptor.id;
        bump t t.parks;
        true
      end
    end

  let adopt t ~sc =
    if t.depth = 0 then None
    else
      match Tis.pop t.stacks.(sc) with
      | None -> None
      | Some id ->
          ignore (Rt.Atomic.fetch_and_add t.counts.(sc) (-1));
          bump t t.adopts;
          Some (Descriptor.get t.table id)

  let parked t ~sc = Tis.to_list t.stacks.(sc)

  let stats t : stats =
    let sum a = Array.fold_left ( + ) 0 a in
    { parks = sum t.parks; adopts = sum t.adopts; overflows = sum t.overflows }
end
