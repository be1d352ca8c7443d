module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Buddy = Buddy.Make (Rt)

  module Store = Mm_mem.Store.Make (Rt)
  module Addr = Mm_mem.Addr

  (* Span reservoir (scalloc-style, PAPERS.md): virtual spans of
     [2^span_order] pages are reserved from the store up front — one
     simulated mmap per span — and page-aligned extents are carved out of
     them by the per-span lock-free buddy. Spans are published into a
     fixed array of slots with a single CAS and never unmapped: freed
     extents coalesce inside the span for reuse, which is what collapses
     the per-request mmap traffic the census measures. *)

  type span = { base : int; buddy : Buddy.t }

  type stats = {
    spans : int;
    span_races : int;
    grants : int;
    releases : int;
    fallbacks : int;
  }

  type t = {
    rt : Rt.t;
    store : Store.t;
    span_order : int;
    max_spans : int;
    slots : span option Rt.atomic array;
    on_acquire_retry : unit -> unit;
    on_release_retry : unit -> unit;
    on_coalesce_retry : unit -> unit;
    on_span_retry : unit -> unit;
    (* striped per-thread counters, summed by [stats] *)
    spans_n : int array;
    races_n : int array;
    grants_n : int array;
    releases_n : int array;
    fallbacks_n : int array;
  }

  let nop () = ()

  let log2_exact n =
    let rec go k = if 1 lsl k = n then Some k else if 1 lsl k > n then None else go (k + 1) in
    go 0

  let create rt store ?(max_spans = 64) ?(on_acquire_retry = nop)
      ?(on_release_retry = nop) ?(on_coalesce_retry = nop)
      ?(on_span_retry = nop) ~span_pages () =
    let span_order =
      match log2_exact span_pages with
      | Some k -> k
      | None ->
          invalid_arg "Page_manager.create: span_pages must be a power of two"
    in
    if max_spans < 1 then invalid_arg "Page_manager.create: max_spans < 1";
    {
      rt;
      store;
      span_order;
      max_spans;
      slots = Array.init max_spans (fun _ -> Rt.Atomic.make rt None);
      on_acquire_retry;
      on_release_retry;
      on_coalesce_retry;
      on_span_retry;
      spans_n = Array.make Rt.max_threads 0;
      races_n = Array.make Rt.max_threads 0;
      grants_n = Array.make Rt.max_threads 0;
      releases_n = Array.make Rt.max_threads 0;
      fallbacks_n = Array.make Rt.max_threads 0;
    }

  let bump t arr =
    let tid = Rt.self t.rt in
    arr.(tid) <- arr.(tid) + 1
  let span_pages t = 1 lsl t.span_order

  (* Smallest buddy order covering [len] bytes. *)
  let order_for len =
    let pages = (len + Store.page - 1) / Store.page in
    let rec go k = if 1 lsl k >= pages then k else go (k + 1) in
    go 0

  let mk_buddy t =
    Buddy.create t.rt ~on_acquire_retry:t.on_acquire_retry
      ~on_release_retry:t.on_release_retry
      ~on_coalesce_retry:t.on_coalesce_retry ~order:t.span_order ()

  let alloc t ~len =
    if len <= 0 then invalid_arg "Page_manager.alloc: len must be positive";
    let k = order_for len in
    if k > t.span_order then begin
      (* Larger than a whole span: the caller direct-maps it. *)
      bump t t.fallbacks_n;
      None
    end
    else begin
      let requested = (len + Store.page - 1) / Store.page in
      let rec scan i =
        if i >= t.max_spans then begin
          (* Every slot full and exhausted — fail over to a direct map. *)
          bump t t.fallbacks_n;
          None
        end
        else
          match Rt.Atomic.get t.slots.(i) with
          | Some span -> (
              match Buddy.acquire span.buddy ~order:k with
              | Some page ->
                  Store.note_buddy_grant t.store ~requested
                    ~granted:(1 lsl k);
                  bump t t.grants_n;
                  Some (span.base + (page * Store.page))
              | None -> scan (i + 1))
          | None ->
              (* Empty slot: map a candidate span and race to publish it.
                 The loser's mapping is genuinely returned — optimistic
                 reservation keeps the install path a single CAS. *)
              let base = Store.alloc_span t.store ~pages:(span_pages t) in
              let span = { base; buddy = mk_buddy t } in
              Rt.label t.rt Pg_labels.span_reserve;
              if Rt.Atomic.compare_and_set t.slots.(i) None (Some span)
              then begin
                bump t t.spans_n;
                Rt.obs_event t.rt Rt.Obs.Transition "span.reserved";
                scan i
              end
              else begin
                t.on_span_retry ();
                bump t t.races_n;
                Store.free_span t.store base;
                scan i
              end
      in
      scan 0
    end

  let find_span t addr =
    let region = Addr.region addr in
    let rec go i =
      if i >= t.max_spans then None
      else
        match Rt.Atomic.get t.slots.(i) with
        | Some span when Addr.region span.base = region -> Some span
        | _ -> go (i + 1)
    in
    go 0

  let owns t addr = find_span t addr <> None

  let free t addr ~len =
    match find_span t addr with
    | None -> false
    | Some span ->
        let k = order_for len in
        let page = (addr - span.base) / Store.page in
        Buddy.release span.buddy ~page ~order:k;
        bump t t.releases_n;
        true

  let stats t =
    let sum a = Array.fold_left ( + ) 0 a in
    {
      spans = sum t.spans_n;
      span_races = sum t.races_n;
      grants = sum t.grants_n;
      releases = sum t.releases_n;
      fallbacks = sum t.fallbacks_n;
    }

  let spans t =
    Array.fold_left
      (fun n slot -> if Rt.Atomic.get slot = None then n else n + 1)
      0 t.slots

  let check_invariants t =
    Array.iter
      (fun slot ->
        match Rt.Atomic.get slot with
        | Some span -> Buddy.check_invariants span.buddy
        | None -> ())
      t.slots
end
