module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Descriptor = Descriptor.Make (Rt)
  module Desc_pool = Desc_pool.Make (Rt)
  module Partial_list = Partial_list.Make (Rt)
  module Sb_cache = Sb_cache.Make (Rt)

  module Cfg = Mm_mem.Alloc_config
  module Store = Mm_mem.Store.Make (Rt)
  module Addr = Mm_mem.Addr
  module Sc = Mm_mem.Size_class
  module Prefix = Mm_mem.Block_prefix
  module Backoff = Mm_lockfree.Backoff.Make (Rt)
  module Pm = Mm_pages.Page_manager.Make (Rt)

  (* Line numbers in comments refer to the paper's Figures 4 (malloc) and
     6 (free). *)

  type heap = {
    gid : int;  (* sc * nheaps + h *)
    sc : int;
    active : int Rt.atomic;  (* packed Active_word, 0 = NULL *)
    partial : int Rt.atomic;  (* descriptor id, 0 = none *)
  }

  type t = {
    rt : Rt.t;
    cfg : Cfg.t;
    store : Store.t;
    classes : Sc.t;
    nheaps_ : int;
    heaps : heap array array;  (* [size class].[processor heap] *)
    lists : Partial_list.t array;  (* per size class *)
    table : Descriptor.table;
    pool : Desc_pool.t;
    sbc : Sb_cache.t;  (* warm EMPTY-superblock cache, DESIGN.md §14 *)
    pm : Pm.t option;  (* span reservoir + buddy backend, DESIGN.md §15 *)
    mallocs : int array;  (* striped per-thread op counters *)
    frees : int array;
    (* CAS-retry counters per contention site (striped per thread):
       quantifies where interference lands, cf. the paper's §4.2.3
       discussion of overlapping read-modify-write segments. *)
    retry_reserve : int array;
    retry_pop : int array;
    retry_free : int array;
    retry_update_active : int array;
    retry_partial_slot : int array;
    retry_park : int array;
    retry_adopt : int array;
    retry_buddy_acquire : int array;
    retry_buddy_release : int array;
    retry_buddy_coalesce : int array;
    retry_span_reserve : int array;
    retry_desc_spill : int array;
    retry_desc_steal : int array;
    retry_pub_push : int array;
    retry_pub_claim : int array;
    (* Owner-biased free lists (DESIGN.md §19): [ob] caches the mode
       test off the config; [owned.(tid).(sc)] is the id of the
       superblock thread [tid] currently owns for size class [sc] (0 =
       none). Each slot is written only by thread [tid] itself, so the
       ownership test in [free] reads its own always-coherent entry
       rather than a possibly stale cross-thread descriptor field. *)
    ob : bool;
    owned : int array array;
    (* Per-thread scratch of [flush_batch] (descriptor id per block,
       then one descriptor's bases), [cache_blocks] long; empty
       unless [cfg.cache], the only configuration that flushes. *)
    flush_ids : int array array;
    flush_bases : int array array;
  }

  (* The contention-site row set is the label registry's census grouping
     (this layer's followed by the page layer's) — a new labeled site
     added to [Labels.census_sites] appears here, in the harness table
     and in the obs equality proof automatically, and one without a
     striped counter fails loudly in [retry_counts]. *)
  let retry_sites =
    List.map fst Labels.census_sites
    @ List.map fst Mm_pages.Pg_labels.census_sites

  let name = "new"

  let create rt (cfg : Cfg.t) =
    let classes = Sc.make ~sbsize:cfg.sbsize () in
    let nheaps = Cfg.resolve_nheaps cfg ~num_cpus:(Rt.num_cpus rt) in
    let store =
      Store.create rt ~capacity:cfg.store_capacity ~sbsize:cfg.sbsize
        ~hyperblocks:cfg.hyperblocks ()
    in
    let table = Descriptor.create_table rt ~capacity:(2 * cfg.store_capacity) in
    let stripe arr () =
      let tid = Rt.self rt in
      arr.(tid) <- arr.(tid) + 1
    in
    let retry_desc_spill = Array.make Rt.max_threads 0 in
    let retry_desc_steal = Array.make Rt.max_threads 0 in
    let pool =
      Desc_pool.create rt table ~kind:cfg.desc_pool
        ?scan_threshold:
          (if cfg.desc_scan_threshold > 0 then Some cfg.desc_scan_threshold
           else None)
        ~on_spill_retry:(stripe retry_desc_spill)
        ~on_steal_retry:(stripe retry_desc_steal) ()
    in
    let nclasses = Sc.count classes in
    let heaps =
      Array.init nclasses (fun sc ->
          Array.init nheaps (fun h ->
              {
                gid = (sc * nheaps) + h;
                sc;
                active = Rt.Atomic.make rt Active_word.null;
                partial = Rt.Atomic.make rt 0;
              }))
    in
    let lists =
      Array.init nclasses (fun _ -> Partial_list.create rt cfg.partial_policy)
    in
    let retry_park = Array.make Rt.max_threads 0 in
    let retry_adopt = Array.make Rt.max_threads 0 in
    let sbc =
      Sb_cache.create rt ~depth:cfg.sb_cache_depth ~nclasses ~table
        ~on_park_retry:(stripe retry_park) ~on_adopt_retry:(stripe retry_adopt)
        ()
    in
    let retry_buddy_acquire = Array.make Rt.max_threads 0 in
    let retry_buddy_release = Array.make Rt.max_threads 0 in
    let retry_buddy_coalesce = Array.make Rt.max_threads 0 in
    let retry_span_reserve = Array.make Rt.max_threads 0 in
    let pm =
      if cfg.page_manager then
        Some
          (Pm.create rt store ~span_pages:cfg.span_pages
             ~on_acquire_retry:(stripe retry_buddy_acquire)
             ~on_release_retry:(stripe retry_buddy_release)
             ~on_coalesce_retry:(stripe retry_buddy_coalesce)
             ~on_span_retry:(stripe retry_span_reserve) ())
      else None
    in
    let scratch () =
      if cfg.cache then
        Array.init Rt.max_threads (fun _ -> Array.make cfg.cache_blocks 0)
      else [||]
    in
    {
      rt;
      cfg;
      store;
      classes;
      nheaps_ = nheaps;
      heaps;
      lists;
      table;
      pool;
      sbc;
      pm;
      mallocs = Array.make Rt.max_threads 0;
      frees = Array.make Rt.max_threads 0;
      retry_reserve = Array.make Rt.max_threads 0;
      retry_pop = Array.make Rt.max_threads 0;
      retry_free = Array.make Rt.max_threads 0;
      retry_update_active = Array.make Rt.max_threads 0;
      retry_partial_slot = Array.make Rt.max_threads 0;
      retry_park;
      retry_adopt;
      retry_buddy_acquire;
      retry_buddy_release;
      retry_buddy_coalesce;
      retry_span_reserve;
      retry_desc_spill;
      retry_desc_steal;
      retry_pub_push = Array.make Rt.max_threads 0;
      retry_pub_claim = Array.make Rt.max_threads 0;
      ob = cfg.free_lists = `Owner_biased;
      owned = Array.init Rt.max_threads (fun _ -> Array.make nclasses 0);
      flush_ids = scratch ();
      flush_bases = scratch ();
    }

  let bump t arr =
    let tid = Rt.self t.rt in
    arr.(tid) <- arr.(tid) + 1
  let fail fmt = Format.kasprintf failwith fmt

  let site_counter t = function
    | "active.reserve" -> t.retry_reserve
    | "anchor.pop" -> t.retry_pop
    | "anchor.free" -> t.retry_free
    | "update_active" -> t.retry_update_active
    | "partial.slot" -> t.retry_partial_slot
    | "sbc.park" -> t.retry_park
    | "sbc.adopt" -> t.retry_adopt
    | "buddy.acquire" -> t.retry_buddy_acquire
    | "buddy.release" -> t.retry_buddy_release
    | "buddy.coalesce" -> t.retry_buddy_coalesce
    | "span.reserve" -> t.retry_span_reserve
    | "desc.spill" -> t.retry_desc_spill
    | "desc.steal" -> t.retry_desc_steal
    | "pub.push" -> t.retry_pub_push
    | "pub.claim" -> t.retry_pub_claim
    | site ->
        invalid_arg
          (Printf.sprintf
             "Lf_alloc: census site %S has no striped retry counter" site)

  let retry_counts t =
    List.map
      (fun site -> (site, Array.fold_left ( + ) 0 (site_counter t site)))
      retry_sites

  let rt t = t.rt
  let store t = t.store
  let sb_cache t = t.sbc
  let page_manager t = t.pm

  (* Superblock backing: with the page manager on, superblocks are carved
     out of reserved spans (no syscall) and released back to the owning
     span's buddy; the store's mmap/munmap path serves only the
     [page_manager:false] configuration and reservoir exhaustion. A
     released superblock routes by ownership — [Pm.free] recognizes span
     extents by region, so store-mapped superblocks (including any
     allocated before the reservoir filled) still unmap correctly. *)
  let alloc_sb t =
    match t.pm with
    | Some pm -> (
        match Pm.alloc pm ~len:t.cfg.sbsize with
        | Some addr -> addr
        | None -> Store.alloc_superblock t.store)
    | None -> Store.alloc_superblock t.store

  let release_sb t sb =
    match t.pm with
    | Some pm when Pm.free pm sb ~len:t.cfg.sbsize -> ()
    | _ -> Store.free_superblock t.store sb
  let size_classes t = t.classes
  let nheaps t = t.nheaps_
  let descriptor_table t = t.table
  let desc_pool t = t.pool

  let heap_of_gid t gid = t.heaps.(gid / t.nheaps_).(gid mod t.nheaps_)

  (* [heap_at] takes the dense thread id from the caller: [Rt.self] is a
     domain-local lookup on the real runtime, so the hot entry points
     resolve it once per operation and thread it through. *)
  let heap_at t sc tid = t.heaps.(sc).(tid mod t.nheaps_)
  let my_heap t sc = heap_at t sc (Rt.self t.rt)

  (* ------------------------------------------------------------------ *)
  (* HeapPutPartial / HeapGetPartial / RemoveEmptyDesc (Figs. 4 & 6). *)

  let rec hpp_swap t heap id spins =
    let prev = Rt.Atomic.get heap.partial in
    Rt.label t.rt Labels.free_put_partial;
    if Rt.Atomic.compare_and_set heap.partial prev id then prev
    else begin
      bump t t.retry_partial_slot;
      hpp_swap t heap id (Backoff.spin t.rt spins)
    end

  let heap_put_partial t desc =
    let heap = heap_of_gid t desc.Descriptor.heap_gid in
    let prev = hpp_swap t heap desc.Descriptor.id Backoff.initial in
    if prev <> 0 then
      Partial_list.put t.lists.(heap.sc) (Descriptor.get t.table prev)

  (* Release an EMPTY descriptor whose last reference the caller just
     removed — the Desc_pool.retire precondition, which is exactly the
     exclusivity Sb_cache.park requires. With the warm cache enabled the
     superblock is still mapped here (finish_push skips the unmap, below),
     so the whole descriptor — bytes, intact free list, anchor tag — parks
     on the size-class cache; a refused park (watermark) genuinely unmaps
     and retires, keeping the paper's space accounting honest. *)
  let release_empty t desc =
    if Sb_cache.enabled t.sbc && desc.Descriptor.sb <> Addr.null then begin
      let sc = desc.Descriptor.heap_gid / t.nheaps_ in
      if Sb_cache.park t.sbc ~sc desc then
        Rt.obs_event t.rt Rt.Obs.Transition "sb.empty->cached"
      else begin
        release_sb t desc.Descriptor.sb;
        desc.Descriptor.sb <- Addr.null;
        Desc_pool.retire t.pool desc
      end
    end
    else Desc_pool.retire t.pool desc

  let rec heap_get_partial t heap =
    let id = Rt.Atomic.get heap.partial in
    if id = 0 then Partial_list.get t.lists.(heap.sc)
    else begin
      Rt.label t.rt Labels.hgp_slot_cas;
      if Rt.Atomic.compare_and_set heap.partial id 0 then
        Some (Descriptor.get t.table id)
      else heap_get_partial t heap
    end

  let remove_empty_desc t heap desc =
    Rt.label t.rt Labels.red_slot_cas;
    if Rt.Atomic.compare_and_set heap.partial desc.Descriptor.id 0 then begin
      (* Guard against the (astronomically narrow) slot ABA the paper's
         pseudocode leaves open: between our EMPTY transition and this CAS,
         the descriptor could have been retired by a ListRemoveEmptyDesc,
         reused for a fresh superblock, gone PARTIAL again and landed back
         in this very slot. Retiring it then would corrupt its new life, so
         re-validate the state and reinsert if it is alive. *)
      if
        Anchor.state (Rt.Atomic.get desc.Descriptor.anchor) = Anchor.Empty
      then release_empty t desc
      else heap_put_partial t desc
    end
    else
      Partial_list.remove_empty t.lists.(heap.sc)
        ~retire:(fun d -> release_empty t d)

  (* ------------------------------------------------------------------ *)
  (* UpdateActive (Fig. 4). *)

  (* Someone installed another active superblock: return the credits to
     the anchor and make the superblock PARTIAL (lines 4-8). *)
  let rec ua_return_credits t desc morecredits spins =
    let oldanchor = Rt.Atomic.get desc.Descriptor.anchor in
    let newanchor =
      Anchor.set_state
        (Anchor.set_count oldanchor (Anchor.count oldanchor + morecredits))
        Anchor.Partial
    in
    Rt.label t.rt Labels.ua_credits_cas;
    if
      not
        (Rt.Atomic.compare_and_set desc.Descriptor.anchor oldanchor newanchor)
    then begin
      bump t t.retry_update_active;
      ua_return_credits t desc morecredits (Backoff.spin t.rt spins)
    end

  let update_active t heap desc morecredits =
    let newactive =
      Active_word.make ~desc_id:desc.Descriptor.id ~credits:(morecredits - 1)
    in
    Rt.label t.rt Labels.ua_install;
    (* line 3 *)
    if Rt.Atomic.compare_and_set heap.active Active_word.null newactive then ()
    else begin
      ua_return_credits t desc morecredits Backoff.initial;
      Rt.obs_event t.rt Rt.Obs.Transition "sb.active->partial";
      Rt.label t.rt Labels.ua_return_credits;
      heap_put_partial t desc
    end

  (* ------------------------------------------------------------------ *)
  (* The in-superblock pop shared by MallocFromActive (lines 7-18) and
     MallocFromPartial (lines 11-15). *)

  let clamp_index next = next land Anchor.max_count

  let block_addr (desc : Descriptor.t) idx = desc.sb + (idx * desc.sz)

  (* The paper's pop CAS bumps the anchor tag to defeat ABA on the
     in-superblock free list. [anchor_tag = false] (check subsystem's
     planted bug ONLY) omits the bump, reopening exactly the interleaving
     the tag exists to kill; the schedule explorer must find it. *)
  let pop_tag t a = if t.cfg.anchor_tag then Anchor.incr_tag a else a

  (* lines 16-17: the credits a pop that took the Active word's last
     reservation grabs for UpdateActive, from the anchor it replaced. *)
  let more_credits t oldanchor = min (Anchor.count oldanchor) t.cfg.maxcredits

  (* The anchor a pop installs once it has walked the free list to index
     [next]: avail moves there and the tag is bumped. A pop that took the
     Active word's last reservation ([took_last]) folds in the
     bookkeeping of lines 15-17: FULL when no blocks remain, else
     [more_credits] taken for UpdateActive. *)
  let popped_anchor t ~took_last oldanchor next =
    let a = pop_tag t (Anchor.set_avail oldanchor next) in
    if not took_last then a
    else if Anchor.count oldanchor = 0 then Anchor.set_state a Anchor.Full
    else Anchor.set_count a (Anchor.count oldanchor - more_credits t oldanchor)

  (* Pops one block and returns the anchor the CAS replaced; the block is
     at index [Anchor.avail] of it. [took_last] is MallocFromActive's. *)
  let rec pop_block t (desc : Descriptor.t) ~label ~took_last spins =
    let oldanchor = Rt.Atomic.get desc.anchor in
    let addr = block_addr desc (Anchor.avail oldanchor) in
    (* line 10: may read garbage when racing; the tag CAS rejects it.
       [clamp_index] only keeps the value representable. *)
    let next = Store.read_word ~racy:true t.store addr in
    let newanchor = popped_anchor t ~took_last oldanchor (clamp_index next) in
    Rt.label t.rt label;
    if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then oldanchor
    else begin
      bump t t.retry_pop;
      pop_block t desc ~label ~took_last (Backoff.spin t.rt spins)
    end

  (* lines 19-20, after a pop that took the Active word's last
     reservation: reinstall the superblock with the credits the pop
     took, or note that it went FULL. *)
  let after_last_pop t heap desc oldanchor =
    if Anchor.count oldanchor > 0 then
      update_active t heap desc (more_credits t oldanchor)
    else Rt.obs_event t.rt Rt.Obs.Transition "sb.active->full"

  let finish_block t (desc : Descriptor.t) addr =
    (* line 21: store the descriptor in the block prefix. *)
    Store.write_word t.store addr (Prefix.small ~desc_id:desc.id);
    addr + Prefix.prefix_bytes

  (* ------------------------------------------------------------------ *)
  (* MallocFromActive (Fig. 4). *)

  (* First step: reserve a block (lines 1-6). Returns the Active word the
     CAS replaced, or [Active_word.null] when there is none. *)
  let rec ma_reserve t heap spins =
    let oldactive = Rt.Atomic.get heap.active in
    if Active_word.is_null oldactive then Active_word.null
    else begin
      let newactive =
        if Active_word.credits oldactive = 0 then Active_word.null
        else Active_word.dec_credits oldactive
      in
      Rt.label t.rt Labels.ma_read_active;
      if Rt.Atomic.compare_and_set heap.active oldactive newactive then
        oldactive
      else begin
        bump t t.retry_reserve;
        ma_reserve t heap (Backoff.spin t.rt spins)
      end
    end

  let malloc_from_active t heap =
    let oldactive = ma_reserve t heap Backoff.initial in
    if Active_word.is_null oldactive then Addr.null
    else begin
      Rt.label t.rt Labels.ma_reserved;
      let desc = Descriptor.get t.table (Active_word.desc_id oldactive) in
      let took_last = Active_word.credits oldactive = 0 in
      (* Second step: pop the reserved block (lines 7-18). *)
      let oldanchor =
        pop_block t desc ~label:Labels.ma_pop_cas ~took_last Backoff.initial
      in
      Rt.label t.rt Labels.ma_popped;
      if took_last then after_last_pop t heap desc oldanchor;
      finish_block t desc (block_addr desc (Anchor.avail oldanchor))
    end

  (* ------------------------------------------------------------------ *)
  (* MallocFromPartial (Fig. 4). *)

  (* Reserve blocks (lines 4-10): the credits taken beyond the block
     popped next, or [-1] when the superblock went EMPTY under us. *)
  let rec mp_reserve t (desc : Descriptor.t) spins =
    let oldanchor = Rt.Atomic.get desc.anchor in
    if Anchor.state oldanchor = Anchor.Empty then -1
    else begin
      (* state must be PARTIAL and count > 0 here. *)
      let count = Anchor.count oldanchor in
      let morecredits = min (count - 1) t.cfg.maxcredits in
      let newanchor =
        Anchor.set_state
          (Anchor.set_count oldanchor (count - morecredits - 1))
          (if morecredits > 0 then Anchor.Active else Anchor.Full)
      in
      Rt.label t.rt Labels.mp_reserve_cas;
      if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then
        morecredits
      else begin
        bump t t.retry_reserve;
        mp_reserve t desc (Backoff.spin t.rt spins)
      end
    end

  let rec malloc_from_partial t heap =
    match heap_get_partial t heap with
    | None -> Addr.null
    | Some desc ->
        Rt.label t.rt Labels.mp_got_partial;
        (* No fence before the reserve CAS (in [mp_reserve]): it only
           moves anchor credits and publishes no block memory. heap_gid is
           read by remote frees that synchronize through this descriptor's
           anchor anyway, and the CAS itself orders the store. Explicit
           fences are reserved for link words that remote pops read with
           racy loads (flush_group, hazard_refill). *)
        desc.Descriptor.heap_gid <- heap.gid;
        (* line 3 *)
        let morecredits = mp_reserve t desc Backoff.initial in
        if morecredits < 0 then begin
          (* lines 5-6: became EMPTY under us — release and retry. *)
          release_empty t desc;
          malloc_from_partial t heap
        end
        else begin
          Rt.obs_event t.rt Rt.Obs.Transition
            (if morecredits > 0 then "sb.partial->active"
             else "sb.partial->full");
          (* Pop the reserved block (lines 11-15). *)
          let oldanchor =
            pop_block t desc ~label:Labels.mp_pop_cas ~took_last:false
              Backoff.initial
          in
          (* lines 16-17 *)
          if morecredits > 0 then update_active t heap desc morecredits;
          finish_block t desc (block_addr desc (Anchor.avail oldanchor))
        end

  (* ------------------------------------------------------------------ *)
  (* MallocFromNewSB (Fig. 4), preceded by warm adoption (DESIGN.md §14). *)

  (* Adopt a parked EMPTY superblock instead of mapping a fresh one. The
     tag-bumping pop of the cache stack made the descriptor private to us,
     so the anchor read and the head-link read below are non-racy; the
     free list survived the park intact (all [maxcount] blocks chained
     from [avail]), so the whole of Fig. 4's line 2-3 work — the mmap and
     the O(maxcount) free-list initialization — is skipped. The anchor
     install continues the descriptor's own tag sequence, so a stale CAS
     from the superblock's previous life still fails. *)
  let adopt_parked t heap =
    match Sb_cache.adopt t.sbc ~sc:heap.sc with
    | None -> Addr.null
    | Some desc ->
        desc.Descriptor.heap_gid <- heap.gid;
        let maxcount = desc.Descriptor.maxcount in
        let a0 = Rt.Atomic.get desc.Descriptor.anchor in
        let avail0 = Anchor.avail a0 in
        let head = block_addr desc avail0 in
        let next = clamp_index (Store.read_word t.store head) in
        (* Same credits arithmetic as the fresh-superblock path below. *)
        let credits = min (maxcount - 1) t.cfg.maxcredits - 1 in
        let newactive = Active_word.make ~desc_id:desc.Descriptor.id ~credits in
        Rt.Atomic.set desc.Descriptor.anchor
          (Anchor.make ~avail:next
             ~count:(maxcount - 1 - (credits + 1))
             ~state:Anchor.Active ~tag:(Anchor.tag a0 + 1));
        Rt.fence t.rt;
        Rt.label t.rt Labels.mnsb_install;
        if Rt.Atomic.compare_and_set heap.active Active_word.null newactive
        then begin
          Rt.obs_event t.rt Rt.Obs.Transition "sb.cached->active";
          finish_block t desc head
        end
        else begin
          (* Lost the install race: nothing was handed out, the links are
             untouched — restore the parked EMPTY anchor (tag moves
             forward, never back) and re-park. *)
          Rt.Atomic.set desc.Descriptor.anchor
            (Anchor.make ~avail:avail0 ~count:(maxcount - 1)
               ~state:Anchor.Empty ~tag:(Anchor.tag a0 + 2));
          if Sb_cache.park t.sbc ~sc:heap.sc desc then
            Rt.obs_event t.rt Rt.Obs.Transition "sb.empty->cached"
          else begin
            release_sb t desc.Descriptor.sb;
            desc.Descriptor.sb <- Addr.null;
            Desc_pool.retire t.pool desc
          end;
          Addr.null
        end

  let malloc_from_new_sb_fresh t heap =
    let desc = Desc_pool.alloc t.pool in
    (* line 1 *)
    let sz = Sc.block_size t.classes heap.sc in
    let maxcount =
      min (Sc.blocks_per_superblock t.classes heap.sc) Anchor.max_count
    in
    let sb = alloc_sb t in
    (* line 2 *)
    desc.Descriptor.sb <- sb;
    desc.Descriptor.heap_gid <- heap.gid;
    desc.Descriptor.sz <- sz;
    desc.Descriptor.maxcount <- maxcount;
    Store.init_free_list ~limit:t.cfg.sbsize t.store sb ~sz ~maxcount;
    (* line 3 *)
    (* line 9: newactive.credits = min(maxcount-1, MAXCREDITS) - 1 *)
    let credits = min (maxcount - 1) t.cfg.maxcredits - 1 in
    let newactive = Active_word.make ~desc_id:desc.Descriptor.id ~credits in
    (* lines 5, 10, 11 — the anchor keeps its tag across descriptor reuse,
       preserving the ABA argument over the descriptor's whole history. *)
    let oldtag = Anchor.tag (Rt.Atomic.get desc.Descriptor.anchor) in
    Rt.Atomic.set desc.Descriptor.anchor
      (Anchor.make ~avail:1
         ~count:(maxcount - 1 - (credits + 1))
         ~state:Anchor.Active ~tag:(oldtag + 1));
    Rt.fence t.rt;
    (* line 12 *)
    Rt.label t.rt Labels.mnsb_install;
    (* line 13 *)
    if Rt.Atomic.compare_and_set heap.active Active_word.null newactive then begin
      (* lines 14-15: take block 0. *)
      Rt.obs_event t.rt Rt.Obs.Transition "sb.new->active";
      finish_block t desc sb
    end
    else begin
      (* lines 16-17: another thread won the race; release everything.
         With the warm cache enabled the just-initialized superblock is a
         perfect parking candidate — its free list threads all [maxcount]
         blocks from index 0 and nothing was handed out — so park it
         instead of throwing the mmap and free-list work away. *)
      let parked =
        Sb_cache.enabled t.sbc
        && begin
             Rt.Atomic.set desc.Descriptor.anchor
               (Anchor.make ~avail:0 ~count:(maxcount - 1) ~state:Anchor.Empty
                  ~tag:(oldtag + 2));
             Sb_cache.park t.sbc ~sc:heap.sc desc
           end
      in
      if parked then Rt.obs_event t.rt Rt.Obs.Transition "sb.empty->cached"
      else begin
        release_sb t sb;
        Rt.Atomic.set desc.Descriptor.anchor
          (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Empty ~tag:(oldtag + 2));
        desc.Descriptor.sb <- Addr.null;
        Desc_pool.retire t.pool desc
      end;
      Addr.null
    end

  let malloc_from_new_sb t heap =
    let p = adopt_parked t heap in
    if p <> Addr.null then p else malloc_from_new_sb_fresh t heap

  (* ------------------------------------------------------------------ *)
  (* Owner-biased private/public free lists (DESIGN.md §19),
     [Alloc_config.free_lists = `Owner_biased].

     In this mode no free ever CASes the anchor. A superblock is either
     OWNED by one thread — its anchor frozen at FULL(0,0), its free
     blocks split between the owner's private plain-write LIFO
     (descriptor fields [priv_head]/[priv_count], links threaded
     through payload words) and the public {!Pub_word} list — or
     UNOWNED, in which case its free blocks all sit on the anchor
     exactly as in the paper's figures and the pub word is the sole
     gate for (re)gaining ownership. The governing invariant: the
     anchor of a descriptor whose pub word has the owned bit set is
     written only by the thread that set that bit, which turns every
     anchor update below into an exclusive plain [Atomic.set]; the
     EMPTY/FULL state machine, [Sb_cache] parking and [Partial_list]
     publication are shared with the anchor path unchanged. *)

  (* Private-LIFO pop; caller guarantees [priv_count > 0]. The link
     reads are non-racy: a private block is free and reachable only by
     the owning thread. *)
  let priv_pop t (desc : Descriptor.t) =
    let addr = block_addr desc desc.Descriptor.priv_head in
    desc.Descriptor.priv_head <- clamp_index (Store.read_word t.store addr);
    desc.Descriptor.priv_count <- desc.Descriptor.priv_count - 1;
    addr

  let priv_push t (desc : Descriptor.t) base idx =
    Store.write_word t.store base desc.Descriptor.priv_head;
    desc.Descriptor.priv_head <- idx;
    desc.Descriptor.priv_count <- desc.Descriptor.priv_count + 1

  (* Push one pre-linked chain of [n] blocks, [first_idx] .. [last],
     onto the public list in one CAS. The tail's link word is rewritten
     against the currently observed head; the fence publishes the link
     writes before the CAS makes them reachable (mm-sa
     write-before-publish). Returns the word the CAS replaced so the
     caller can see whether it pushed onto an unowned list (and must
     rescue, below). *)
  let rec ob_push t (desc : Descriptor.t) ~last ~first_idx ~n spins =
    let oldpub = Rt.Atomic.get desc.pub in
    Store.write_word t.store last (Pub_word.head oldpub);
    Rt.fence t.rt;
    Rt.label t.rt Labels.pub_push;
    if
      Rt.Atomic.compare_and_set desc.pub oldpub
        (Pub_word.push_n oldpub ~idx:first_idx ~n)
    then oldpub
    else begin
      bump t t.retry_pub_push;
      ob_push t desc ~last ~first_idx ~n (Backoff.spin t.rt spins)
    end

  (* Walk the [n] blocks of an exclusively held chain to its tail. *)
  let ob_chain_tail t (desc : Descriptor.t) head n =
    let idx = ref head in
    for _ = 2 to n do
      idx := clamp_index (Store.read_word t.store (block_addr desc !idx))
    done;
    !idx

  (* Clear the owned bit, keeping any blocks pushed meanwhile. *)
  let rec ob_un_own t (desc : Descriptor.t) spins =
    let p = Rt.Atomic.get desc.pub in
    Rt.label t.rt Labels.pub_claim;
    if not (Rt.Atomic.compare_and_set desc.pub p (Pub_word.un_own p)) then begin
      bump t t.retry_pub_claim;
      ob_un_own t desc (Backoff.spin t.rt spins)
    end

  (* Pusher-driven reconciliation of an unowned superblock: a thread
     whose push lands on an unowned pub word must drain the list back
     into the anchor, because nobody else will (the owner is gone).
     Own-and-claim in one CAS — which excludes acquirers and other
     rescuers from the anchor — then flush the claimed chain:
     FULL→PARTIAL republishes through [heap_put_partial], a
     completely-free superblock takes the EMPTY transition and
     releases, both exactly as the anchor path. Un-own and loop for
     pushes that raced in. Lock-free: every iteration transfers some
     thread's completed frees; a thread killed mid-rescue leaves the
     descriptor owned, which every other thread skips past. *)
  let rec ob_rescue t (desc : Descriptor.t) =
    let oldpub = Rt.Atomic.get desc.Descriptor.pub in
    if Pub_word.owned oldpub || Pub_word.count oldpub = 0 then ()
    else begin
      Rt.label t.rt Labels.pub_claim;
      if
        not
          (Rt.Atomic.compare_and_set desc.Descriptor.pub oldpub
             (Pub_word.claim oldpub))
      then begin
        bump t t.retry_pub_claim;
        ob_rescue t desc
      end
      else begin
        let n = Pub_word.count oldpub and head = Pub_word.head oldpub in
        let a = Rt.Atomic.get desc.Descriptor.anchor in
        let oldstate = Anchor.state a in
        (match oldstate with
        | Anchor.Full | Anchor.Partial -> ()
        | st ->
            fail "ob_rescue: desc %d has pushed frees in state %s"
              desc.Descriptor.id
              (Anchor.state_to_string st));
        let total = Anchor.count a + n in
        let tail = ob_chain_tail t desc head n in
        Store.write_word t.store (block_addr desc tail) (Anchor.avail a);
        if total = desc.Descriptor.maxcount then begin
          (* Every block of the superblock is free, so no thread holds
             one and no further push can race: plain-reset both words.
             The anchor takes the adoptable parked-EMPTY form — all
             [maxcount] blocks chained from avail, count = maxcount-1 —
             matching the anchor path's EMPTY transition. *)
          Rt.Atomic.set desc.Descriptor.anchor
            (Anchor.make ~avail:head
               ~count:(desc.Descriptor.maxcount - 1)
               ~state:Anchor.Empty ~tag:(Anchor.tag a + 1));
          Rt.Atomic.set desc.Descriptor.pub (Pub_word.unowned_empty oldpub);
          (* Same observable transition as the anchor path's EMPTY CAS,
             but no [free_empty] label: this update is exclusive (no
             read→CAS window to interpose on). *)
          Rt.obs_event t.rt Rt.Obs.Transition "sb.empty";
          if not (Sb_cache.enabled t.sbc) then release_sb t desc.Descriptor.sb;
          match oldstate with
          | Anchor.Partial ->
              (* Already in the partial structures: remove-then-release
                 with the same slot-ABA guard as the anchor path. *)
              remove_empty_desc t (heap_of_gid t desc.Descriptor.heap_gid) desc
          | _ ->
              (* FULL: unreferenced, exclusively ours. *)
              release_empty t desc
        end
        else begin
          Rt.fence t.rt;
          Rt.Atomic.set desc.Descriptor.anchor
            (Anchor.make ~avail:head ~count:total ~state:Anchor.Partial
               ~tag:(Anchor.tag a + 1));
          (* Republish BEFORE un-owning: a rescuer that claims the pub
             word after us must find the descriptor already reachable,
             or its own EMPTY transition could release a descriptor
             that is in no structure. *)
          if oldstate = Anchor.Full then begin
            Rt.obs_event t.rt Rt.Obs.Transition "sb.full->partial";
            heap_put_partial t desc
          end;
          ob_un_own t desc Backoff.initial;
          ob_rescue t desc
        end
      end
    end

  (* Try to set the owned bit (keeping any pending public blocks: the
     new owner claims them on its first refill). [false] means a rescue
     is in flight or a killed thread orphaned the word — callers skip
     the descriptor rather than wait on anyone. *)
  let rec ob_try_own t (desc : Descriptor.t) =
    let oldpub = Rt.Atomic.get desc.pub in
    if Pub_word.owned oldpub then false
    else begin
      Rt.label t.rt Labels.pub_claim;
      if Rt.Atomic.compare_and_set desc.pub oldpub (Pub_word.own oldpub) then
        true
      else begin
        bump t t.retry_pub_claim;
        ob_try_own t desc
      end
    end

  let ob_install t (desc : Descriptor.t) heap tid =
    desc.Descriptor.owner <- tid;
    t.owned.(tid).(heap.sc) <- desc.Descriptor.id

  let rec ob_acquire_partial t heap tid =
    match heap_get_partial t heap with
    | None -> None
    | Some desc ->
        if not (ob_try_own t desc) then begin
          (* Transient rescue or an orphan: put it back, fall through
             to a fresh superblock — never wait. *)
          heap_put_partial t desc;
          None
        end
        else begin
          let a = Rt.Atomic.get desc.Descriptor.anchor in
          match Anchor.state a with
          | Anchor.Empty ->
              (* EMPTY lingering in a partial structure (the
                 remove-empty fallback leaves these in the anchor path
                 too): all blocks free, so no pushers — plain-release
                 and keep looking. *)
              Rt.Atomic.set desc.Descriptor.pub
                (Pub_word.unowned_empty (Rt.Atomic.get desc.Descriptor.pub));
              release_empty t desc;
              ob_acquire_partial t heap tid
          | Anchor.Partial ->
              (* We own the pub word, so this write is exclusive:
                 freeze the anchor and take its whole chain private. *)
              desc.Descriptor.heap_gid <- heap.gid;
              desc.Descriptor.priv_head <- Anchor.avail a;
              desc.Descriptor.priv_count <- Anchor.count a;
              Rt.Atomic.set desc.Descriptor.anchor
                (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Full
                   ~tag:(Anchor.tag a + 1));
              ob_install t desc heap tid;
              Rt.obs_event t.rt Rt.Obs.Transition "sb.partial->owned";
              Some desc
          | st ->
              fail "ob_acquire_partial: desc %d in state %s in partial \
                    structures"
                desc.Descriptor.id
                (Anchor.state_to_string st)
        end

  let ob_acquire_new t heap tid =
    match Sb_cache.adopt t.sbc ~sc:heap.sc with
    | Some desc ->
        (* The tag-bumping cache pop made the descriptor private to us;
           the free list survived parking intact (all [maxcount] blocks
           chained from avail), so it becomes the private list whole —
           no re-zeroing, no free-list rebuild, same as adopt_parked. *)
        desc.Descriptor.heap_gid <- heap.gid;
        let a0 = Rt.Atomic.get desc.Descriptor.anchor in
        desc.Descriptor.priv_head <- Anchor.avail a0;
        desc.Descriptor.priv_count <- desc.Descriptor.maxcount;
        Rt.Atomic.set desc.Descriptor.anchor
          (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Full
             ~tag:(Anchor.tag a0 + 1));
        Rt.Atomic.set desc.Descriptor.pub
          (Pub_word.owned_empty (Rt.Atomic.get desc.Descriptor.pub));
        ob_install t desc heap tid;
        Rt.obs_event t.rt Rt.Obs.Transition "sb.cached->owned";
        desc
    | None ->
        let desc = Desc_pool.alloc t.pool in
        let sz = Sc.block_size t.classes heap.sc in
        let maxcount =
          min (Sc.blocks_per_superblock t.classes heap.sc) Anchor.max_count
        in
        let sb = alloc_sb t in
        desc.Descriptor.sb <- sb;
        desc.Descriptor.heap_gid <- heap.gid;
        desc.Descriptor.sz <- sz;
        desc.Descriptor.maxcount <- maxcount;
        Store.init_free_list ~limit:t.cfg.sbsize t.store sb ~sz ~maxcount;
        desc.Descriptor.priv_head <- 0;
        desc.Descriptor.priv_count <- maxcount;
        (* Ownership is per-thread — there is no install race to lose,
           so both words are plain sets (tags continue the descriptor's
           own sequence, as everywhere). *)
        Rt.Atomic.set desc.Descriptor.anchor
          (Anchor.make ~avail:0 ~count:0 ~state:Anchor.Full
             ~tag:(Anchor.tag (Rt.Atomic.get desc.Descriptor.anchor) + 1));
        Rt.Atomic.set desc.Descriptor.pub
          (Pub_word.owned_empty (Rt.Atomic.get desc.Descriptor.pub));
        ob_install t desc heap tid;
        Rt.obs_event t.rt Rt.Obs.Transition "sb.new->owned";
        desc

  (* The owner's slow path: private list empty. Claim the whole public
     list in one CAS if it has blocks; otherwise hand the superblock
     off — un-own the pub word (the anchor stays FULL(0,0) with every
     block allocated out; remote frees regrow it through pub.push +
     rescue) so the thread can go acquire a superblock with blocks.
     Returns [true] when the private list was refilled. *)
  let rec ob_owner_refill t (desc : Descriptor.t) heap tid =
    let oldpub = Rt.Atomic.get desc.Descriptor.pub in
    if Pub_word.count oldpub > 0 then begin
      Rt.label t.rt Labels.pub_claim;
      if
        Rt.Atomic.compare_and_set desc.Descriptor.pub oldpub
          (Pub_word.claim oldpub)
      then begin
        desc.Descriptor.priv_head <- Pub_word.head oldpub;
        desc.Descriptor.priv_count <- Pub_word.count oldpub;
        true
      end
      else begin
        bump t t.retry_pub_claim;
        ob_owner_refill t desc heap tid
      end
    end
    else begin
      Rt.label t.rt Labels.pub_claim;
      if
        Rt.Atomic.compare_and_set desc.Descriptor.pub oldpub
          (Pub_word.unowned_empty oldpub)
      then begin
        (* [owner] is debug-only (never read for logic), so it is
           cleared after the CAS — nothing belongs in the read→CAS
           window. *)
        desc.Descriptor.owner <- -1;
        t.owned.(tid).(heap.sc) <- 0;
        Rt.obs_event t.rt Rt.Obs.Transition "sb.owned->handoff";
        false
      end
      else begin
        (* A push landed between the read and the CAS: keep owning and
           claim it on the next round. *)
        bump t t.retry_pub_claim;
        ob_owner_refill t desc heap tid
      end
    end

  let rec malloc_ob t sc tid =
    let id = t.owned.(tid).(sc) in
    if id <> 0 then begin
      let desc = Descriptor.get t.table id in
      if desc.Descriptor.priv_count > 0 then
        finish_block t desc (priv_pop t desc)
      else begin
        ignore (ob_owner_refill t desc (heap_at t sc tid) tid : bool);
        malloc_ob t sc tid
      end
    end
    else begin
      let heap = heap_at t sc tid in
      let desc =
        match ob_acquire_partial t heap tid with
        | Some d -> d
        | None -> ob_acquire_new t heap tid
      in
      (* PARTIAL anchors have count > 0 and new superblocks maxcount
         blocks, so the fresh private list is never empty here. *)
      finish_block t desc (priv_pop t desc)
    end

  let free_ob t base prefix tid =
    let desc = Descriptor.get t.table (Prefix.desc_id prefix) in
    (* Same wild-pointer guard as [free_small]. *)
    let off = base - desc.Descriptor.sb in
    let idx = off / desc.Descriptor.sz in
    if
      off < 0 || idx >= desc.Descriptor.maxcount
      || idx * desc.Descriptor.sz <> off
    then invalid_arg "Lf_alloc.free: not a block address";
    let sc = desc.Descriptor.heap_gid / t.nheaps_ in
    if t.owned.(tid).(sc) = desc.Descriptor.id then
      (* Owner: plain-write LIFO push — no CAS, no fence. [sc] is
         trustworthy only combined with the ownership test: if we own
         the descriptor we wrote [heap_gid] ourselves; if we don't, no
         slot of OUR [owned] row can hold its id (ids are unique and
         the row lists exactly what we own), so a stale [heap_gid] can
         only produce a correct "not the owner". *)
      priv_push t desc base idx
    else begin
      let oldpub =
        ob_push t desc ~last:base ~first_idx:idx ~n:1 Backoff.initial
      in
      if not (Pub_word.owned oldpub) then ob_rescue t desc
    end

  (* Batched push of one descriptor's group [bases.(0 .. n-1)] from the
     block cache: the owner's groups go to the private list (plain
     writes); a remote group is pre-chained and pushed onto pub in one
     CAS, then rescued if the word was unowned — the batched form of
     [free_ob]. *)
  let flush_group_ob t (desc : Descriptor.t) bases n tid =
    let sb = desc.Descriptor.sb and sz = desc.Descriptor.sz in
    let sc = desc.Descriptor.heap_gid / t.nheaps_ in
    if t.owned.(tid).(sc) = desc.Descriptor.id then
      for i = 0 to n - 1 do
        priv_push t desc bases.(i) ((bases.(i) - sb) / sz)
      done
    else begin
      for i = 0 to n - 2 do
        Store.write_word t.store bases.(i) ((bases.(i + 1) - sb) / sz)
      done;
      let oldpub =
        ob_push t desc ~last:bases.(n - 1) ~first_idx:((bases.(0) - sb) / sz)
          ~n Backoff.initial
      in
      if not (Pub_word.owned oldpub) then ob_rescue t desc
    end

  (* Batched refill for the block cache: hand out up to [want] private
     blocks into [dst], in pop order. An empty (or absent) private list
     writes none and the cache falls back to [malloc], whose owner paths
     run the refill/handoff logic — cheap either way. *)
  let refill_batch_ob t ~sc ~want dst =
    let tid = Rt.self t.rt in
    let id = t.owned.(tid).(sc) in
    if id = 0 then 0
    else begin
      let desc = Descriptor.get t.table id in
      let take = min want desc.Descriptor.priv_count in
      for i = 0 to take - 1 do
        dst.(i) <- finish_block t desc (priv_pop t desc)
      done;
      take
    end

  (* ------------------------------------------------------------------ *)
  (* malloc (Fig. 4). *)

  (* lines 2-3, rerouted: with the page manager on, large blocks come
     from a span's buddy (no syscall) and only spill to the store's
     direct-map path when no span can serve the size. The prefix records
     the total length either way — [free_large_block] recovers the
     buddy order from it. *)
  let malloc_large t n =
    let len = n + Prefix.prefix_bytes in
    let base =
      match t.pm with
      | Some pm -> (
          match Pm.alloc pm ~len with
          | Some addr -> addr
          | None -> Store.alloc_large t.store ~len)
      | None -> Store.alloc_large t.store ~len
    in
    Store.write_word t.store base (Prefix.large ~total_len:len);
    base + Prefix.prefix_bytes

  let free_large_block t base prefix =
    match t.pm with
    | Some pm when Pm.free pm base ~len:(Prefix.large_len prefix) -> ()
    | _ -> Store.free_large t.store base

  (* line 1 onwards: every path returns [Addr.null] when it cannot
     serve, and a payload is never null. *)
  let rec malloc_small t heap =
    let p = malloc_from_active t heap in
    if p <> Addr.null then p
    else
      let p = malloc_from_partial t heap in
      if p <> Addr.null then p
      else
        let p = malloc_from_new_sb t heap in
        if p <> Addr.null then p else malloc_small t heap

  let malloc t n =
    if n < 0 then invalid_arg "Lf_alloc.malloc: negative size";
    let tid = Rt.self t.rt in
    t.mallocs.(tid) <- t.mallocs.(tid) + 1;
    let sc = Sc.class_of_request t.classes n in
    if sc = Sc.large then malloc_large t n (* lines 2-3 *)
    else if t.ob then malloc_ob t sc tid
    else malloc_small t (heap_at t sc tid)

  (* ------------------------------------------------------------------ *)
  (* free (Fig. 6). *)

  (* The outcome of an anchor push, singleton or batched, packed in an
     int: [pushed] for a plain push, [pushed_full] when the superblock
     went FULL -> PARTIAL, and otherwise the heap gid (>= 0) that owned
     the superblock the push emptied. *)
  let pushed = -1
  let pushed_full = -2

  (* Post-CAS epilogue shared by the singleton push and the batched flush
     (flush_group below): release an emptied superblock (lines 19-21) or
     re-park a formerly FULL one (lines 22-23). *)
  let finish_push t desc outcome =
    if outcome >= 0 then begin
      Rt.obs_event t.rt Rt.Obs.Transition "sb.empty";
      Rt.label t.rt Labels.free_empty;
      (* With the warm cache enabled the superblock stays mapped: the
         thread that later removes the descriptor's last reference parks
         bytes + free list + anchor together (release_empty), or unmaps
         there if the cache is full. Unmapping here would tear the
         superblock away before ownership of the descriptor settles. *)
      if not (Sb_cache.enabled t.sbc) then release_sb t desc.Descriptor.sb;
      remove_empty_desc t (heap_of_gid t outcome) desc
    end
    else if outcome = pushed_full then begin
      Rt.obs_event t.rt Rt.Obs.Transition "sb.full->partial";
      heap_put_partial t desc
    end

  let rec free_push t (desc : Descriptor.t) base idx spins =
    let oldanchor = Rt.Atomic.get desc.anchor in
    (* line 8: thread the block onto the available list. *)
    Store.write_word t.store base (Anchor.avail oldanchor);
    (* line 9 *)
    let with_avail = Anchor.set_avail oldanchor idx in
    let oldstate = Anchor.state oldanchor in
    if Anchor.count oldanchor = desc.maxcount - 1 then begin
      (* lines 12-15: last allocated block — the superblock empties. *)
      let heap_gid = desc.heap_gid in
      (* line 13 *)
      Rt.fence t.rt;
      (* line 14: instruction fence *)
      let newanchor = Anchor.set_state with_avail Anchor.Empty in
      Rt.fence t.rt;
      (* line 17: memory fence *)
      Rt.label t.rt Labels.free_cas;
      if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then heap_gid
      else begin
        bump t t.retry_free;
        free_push t desc base idx (Backoff.spin t.rt spins)
      end
    end
    else begin
      (* lines 10-11, 16 *)
      let st = if oldstate = Anchor.Full then Anchor.Partial else oldstate in
      let newanchor =
        Anchor.set_count (Anchor.set_state with_avail st)
          (Anchor.count oldanchor + 1)
      in
      Rt.fence t.rt;
      (* line 17: memory fence *)
      Rt.label t.rt Labels.free_cas;
      if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then
        if oldstate = Anchor.Full then pushed_full else pushed
      else begin
        bump t t.retry_free;
        free_push t desc base idx (Backoff.spin t.rt spins)
      end
    end

  let free_small t base prefix =
    let desc = Descriptor.get t.table (Prefix.desc_id prefix) in
    let sb = desc.Descriptor.sb in
    (* Wild-pointer guard (cheap, one division): the address must be a
       block boundary of the descriptor's superblock. Catches frees of
       interior pointers and of addresses never returned by malloc before
       they can corrupt the anchor. *)
    let off = base - sb in
    let idx = off / desc.Descriptor.sz in
    if
      off < 0 || idx >= desc.Descriptor.maxcount
      || idx * desc.Descriptor.sz <> off
    then invalid_arg "Lf_alloc.free: not a block address";
    finish_push t desc (free_push t desc base idx Backoff.initial)

  let free t payload =
    if payload = Addr.null then ()
    else begin
      let tid = Rt.self t.rt in
      t.frees.(tid) <- t.frees.(tid) + 1;
      (* lines 2-3, extended with aligned-payload resolution *)
      let w = Store.read_word t.store (payload - Prefix.prefix_bytes) in
      let prefix = Store.resolve t.store payload w in
      let base = Prefix.base_payload payload w - Prefix.prefix_bytes in
      if Prefix.is_large prefix then free_large_block t base prefix
        (* lines 4-5 *)
      else if t.ob then free_ob t base prefix tid
      else free_small t base prefix
    end

  let usable_size t payload =
    let w = Store.read_word t.store (payload - Prefix.prefix_bytes) in
    let prefix = Store.resolve t.store payload w in
    let delta = payload - Prefix.base_payload payload w in
    let base_usable =
      if Prefix.is_large prefix then
        Prefix.large_len prefix - Prefix.prefix_bytes
      else
        (Descriptor.get t.table (Prefix.desc_id prefix)).Descriptor.sz
        - Prefix.prefix_bytes
    in
    base_usable - delta

  (* ------------------------------------------------------------------ *)
  (* Batched refill / flush — the entry points of the per-thread
     block-cache frontend (Block_cache, DESIGN.md §13). Not in the
     paper's figures: they amortize Fig. 4's reservation + pop and
     Fig. 6's push over up to [cache_batch] blocks while speaking the
     exact same Active/Anchor protocol, so every shared-structure step
     below stays lock-free and every CAS window carries its own label. *)

  let classify t payload w =
    let prefix = Store.resolve t.store payload w in
    if Prefix.is_large prefix then -1
    else begin
      let desc = Descriptor.get t.table (Prefix.desc_id prefix) in
      (* Same wild-pointer guard as [free_small], applied before the block
         can enter a cache and corrupt the anchor much later. *)
      let off =
        Prefix.base_payload payload w - Prefix.prefix_bytes - desc.Descriptor.sb
      in
      let idx = off / desc.Descriptor.sz in
      if
        off < 0 || idx >= desc.Descriptor.maxcount
        || idx * desc.Descriptor.sz <> off
      then invalid_arg "Lf_alloc.free: not a block address";
      desc.Descriptor.heap_gid
    end

  (* One CAS reserves a whole batch: an Active word with c credits
     entitles its takers to c + 1 pops, so taking
     take = min want (c + 1) reservations at once just subtracts [take]
     (emptying the word when take = c + 1), and the free-list-length
     invariant (length >= count + outstanding reservations) guarantees
     the batched pop below finds [take] linked blocks. Returns the Active
     word the CAS replaced, or [Active_word.null]. *)
  let rec bc_reserve t heap want spins =
    let oldactive = Rt.Atomic.get heap.active in
    if Active_word.is_null oldactive then Active_word.null
    else begin
      let credits = Active_word.credits oldactive in
      let take = min want (credits + 1) in
      let newactive =
        if take = credits + 1 then Active_word.null
        else
          Active_word.make
            ~desc_id:(Active_word.desc_id oldactive)
            ~credits:(credits - take)
      in
      Rt.label t.rt Labels.bc_reserve_cas;
      if Rt.Atomic.compare_and_set heap.active oldactive newactive then
        oldactive
      else begin
        bump t t.retry_reserve;
        bc_reserve t heap want (Backoff.spin t.rt spins)
      end
    end

  (* Pop the whole batch in one anchor CAS: walk [take] links of the
     in-superblock free list, recording the blocks in [dst.(0 .. take-1)],
     and swing avail past them. Each link read may return garbage when
     racing — exactly Fig. 4 line 10's racy read, once per block — and
     the tag bump in the CAS rejects any walk that observed a mutated
     list. Returns the anchor the CAS replaced. *)
  let rec bc_pop t (desc : Descriptor.t) ~took_last dst take spins =
    let oldanchor = Rt.Atomic.get desc.anchor in
    let idx = ref (Anchor.avail oldanchor) in
    for i = 0 to take - 1 do
      let addr = block_addr desc !idx in
      dst.(i) <- addr;
      idx := clamp_index (Store.read_word ~racy:true t.store addr)
    done;
    let newanchor = popped_anchor t ~took_last oldanchor !idx in
    Rt.label t.rt Labels.bc_pop_cas;
    if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then oldanchor
    else begin
      bump t t.retry_pop;
      bc_pop t desc ~took_last dst take (Backoff.spin t.rt spins)
    end

  let refill_batch t ~sc ~max:want dst =
    if want < 1 || want > Array.length dst then
      invalid_arg "Lf_alloc.refill_batch: max must be in [1, length dst]";
    if t.ob then refill_batch_ob t ~sc ~want dst
    else begin
      let heap = my_heap t sc in
      let oldactive = bc_reserve t heap want Backoff.initial in
      if Active_word.is_null oldactive then 0
      else begin
        let desc = Descriptor.get t.table (Active_word.desc_id oldactive) in
        let take = min want (Active_word.credits oldactive + 1) in
        let took_last = take = Active_word.credits oldactive + 1 in
        let oldanchor = bc_pop t desc ~took_last dst take Backoff.initial in
        if took_last then after_last_pop t heap desc oldanchor;
        for i = 0 to take - 1 do
          dst.(i) <- finish_block t desc dst.(i)
        done;
        take
      end
    end

  let rec flush_push t (desc : Descriptor.t) bases n spins =
    let oldanchor = Rt.Atomic.get desc.anchor in
    (* Link the batch first -> ... -> last -> old avail. The walk stays
       in this function so mm-sa's per-function S3 sees these stores
       ahead of the fence and the CAS that publishes them. *)
    for i = 0 to n - 2 do
      Store.write_word t.store bases.(i) ((bases.(i + 1) - desc.sb) / desc.sz)
    done;
    Store.write_word t.store bases.(n - 1) (Anchor.avail oldanchor);
    let with_avail =
      Anchor.set_avail oldanchor ((bases.(0) - desc.sb) / desc.sz)
    in
    let oldstate = Anchor.state oldanchor in
    if Anchor.count oldanchor = desc.maxcount - n then begin
      let heap_gid = desc.heap_gid in
      Rt.fence t.rt;
      let newanchor = Anchor.set_state with_avail Anchor.Empty in
      Rt.fence t.rt;
      Rt.label t.rt Labels.bc_flush_cas;
      if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then heap_gid
      else begin
        bump t t.retry_free;
        flush_push t desc bases n (Backoff.spin t.rt spins)
      end
    end
    else begin
      let st = if oldstate = Anchor.Full then Anchor.Partial else oldstate in
      let newanchor =
        Anchor.set_count (Anchor.set_state with_avail st)
          (Anchor.count oldanchor + n)
      in
      Rt.fence t.rt;
      Rt.label t.rt Labels.bc_flush_cas;
      if Rt.Atomic.compare_and_set desc.anchor oldanchor newanchor then
        if oldstate = Anchor.Full then pushed_full else pushed
      else begin
        bump t t.retry_free;
        flush_push t desc bases n (Backoff.spin t.rt spins)
      end
    end

  (* Push a batch of blocks of ONE superblock back in one anchor CAS: the
     batch is pre-chained through the blocks' link words (first -> ... ->
     last -> old avail, Fig. 6 line 8 n times) and the CAS adds n to the
     count, with the same EMPTY / FULL->PARTIAL transitions as
     [free_small]. [count = maxcount - n] at the CAS means our n blocks
     were the only allocated ones (so no Active word can reference the
     descriptor), generalizing the paper's n = 1 emptiness test. *)
  let flush_group t desc bases n =
    finish_push t desc (flush_push t desc bases n Backoff.initial)

  let flush_batch t src n =
    if not t.cfg.cache || n > t.cfg.cache_blocks then
      invalid_arg "Lf_alloc.flush_batch: needs cfg.cache and n <= cache_blocks";
    let tid = Rt.self t.rt in
    (* Read every prefix once, in order, noting each block's descriptor
       ([-1] for a large block, freed on the spot). *)
    let ids = t.flush_ids.(tid) in
    for i = 0 to n - 1 do
      let base = src.(i) - Prefix.prefix_bytes in
      let prefix = Store.read_word t.store base in
      if Prefix.is_large prefix then begin
        ids.(i) <- -1;
        free_large_block t base prefix
      end
      else ids.(i) <- Prefix.desc_id prefix
    done;
    (* Then push each descriptor's group with one CAS, in first-seen
       order and with its blocks in batch order, so simulated runs stay
       deterministic. *)
    let bases = t.flush_bases.(tid) in
    for i = 0 to n - 1 do
      let id = ids.(i) in
      if id >= 0 then begin
        let m = ref 0 in
        for j = i to n - 1 do
          if ids.(j) = id then begin
            bases.(!m) <- src.(j) - Prefix.prefix_bytes;
            incr m;
            ids.(j) <- -1
          end
        done;
        let desc = Descriptor.get t.table id in
        if t.ob then flush_group_ob t desc bases !m tid
        else flush_group t desc bases !m
      end
    done

  let op_counts t =
    (Array.fold_left ( + ) 0 t.mallocs, Array.fold_left ( + ) 0 t.frees)

  (* ------------------------------------------------------------------ *)
  (* Introspection and quiescent invariant checking. *)

  let heap_active_desc t ~sc ~heap =
    let aw = Rt.Atomic.get t.heaps.(sc).(heap).active in
    if Active_word.is_null aw then None
    else
      Some (Descriptor.get t.table (Active_word.desc_id aw), Active_word.credits aw)

  let heap_partial_desc t ~sc ~heap =
    let id = Rt.Atomic.get t.heaps.(sc).(heap).partial in
    if id = 0 then None else Some (Descriptor.get t.table id)

  let partial_list t ~sc = t.lists.(sc)

  let pp_heap_summary fmt t =
    Format.fprintf fmt "lock-free heap: %d size classes x %d processor heaps@,"
      (Sc.count t.classes) t.nheaps_;
    let live_by_class = Hashtbl.create 16 in
    Descriptor.fold_live t.table ~init:() ~f:(fun () d ->
        let a = Rt.Atomic.get d.Descriptor.anchor in
        if Anchor.state a <> Anchor.Empty && d.Descriptor.sb <> Addr.null then begin
          let sc = Sc.class_of_request t.classes (d.Descriptor.sz - 8) in
          let live, free =
            Option.value (Hashtbl.find_opt live_by_class sc) ~default:(0, 0)
          in
          Hashtbl.replace live_by_class sc (live + 1, free + Anchor.count a)
        end);
    Array.iteri
      (fun sc row ->
        match Hashtbl.find_opt live_by_class sc with
        | None -> ()
        | Some (sbs, free) ->
            let actives =
              Array.fold_left
                (fun n h ->
                  if Active_word.is_null (Rt.Atomic.get h.active) then n
                  else n + 1)
                0 row
            in
            let slots =
              Array.fold_left
                (fun n h -> if Rt.Atomic.get h.partial = 0 then n else n + 1)
                0 row
            in
            Format.fprintf fmt
              "  class %2d (%4dB): %3d superblocks, %3d active, %3d partial \
               slots, %5d listed, %6d unreserved free blocks@,"
              sc (Sc.block_size t.classes sc) sbs actives slots
              (Partial_list.length t.lists.(sc))
              free)
      t.heaps;
    let m, f = op_counts t in
    Format.fprintf fmt "  ops: %d mallocs, %d frees@," m f

  let check_invariants t =
    (* 0. Page-manager conservation: every span's buddy accounts for all
       of its pages as free or busy. *)
    Option.iter Pm.check_invariants t.pm;
    (* 1. Collect every reference to a descriptor and ensure uniqueness. *)
    let refs : (int, string) Hashtbl.t = Hashtbl.create 64 in
    let active_reserved : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let add_ref id src =
      if id <> 0 then
        match Hashtbl.find_opt refs id with
        | Some prev -> fail "desc %d referenced from both %s and %s" id prev src
        | None -> Hashtbl.add refs id src
    in
    Array.iteri
      (fun sc row ->
        Array.iteri
          (fun h heap ->
            let aw = Rt.Atomic.get heap.active in
            if not (Active_word.is_null aw) then begin
              let id = Active_word.desc_id aw in
              add_ref id (Printf.sprintf "Active[%d][%d]" sc h);
              Hashtbl.replace active_reserved id (Active_word.credits aw + 1)
            end;
            add_ref
              (Rt.Atomic.get heap.partial)
              (Printf.sprintf "Partial[%d][%d]" sc h))
          row)
      t.heaps;
    Array.iteri
      (fun sc list ->
        List.iter
          (fun d ->
            add_ref d.Descriptor.id (Printf.sprintf "PartialList[%d]" sc))
          (Partial_list.to_list list))
      t.lists;
    let parked_ids = Hashtbl.create 8 in
    for sc = 0 to Sc.count t.classes - 1 do
      List.iter
        (fun id ->
          add_ref id (Printf.sprintf "SbCache[%d]" sc);
          Hashtbl.replace parked_ids id sc)
        (Sb_cache.parked t.sbc ~sc)
    done;
    (* Owner-biased mode: each thread's owned slots reference the
       superblock it holds privately (always empty under `Anchor). *)
    let owned_ids = Hashtbl.create 8 in
    Array.iteri
      (fun tid row ->
        Array.iteri
          (fun sc id ->
            if id <> 0 then begin
              add_ref id (Printf.sprintf "Owned[%d][%d]" tid sc);
              Hashtbl.replace owned_ids id (tid, sc)
            end)
          row)
      t.owned;
    (* 2. Per-descriptor structural checks. *)
    Descriptor.fold_live t.table ~init:() ~f:(fun () d ->
        let a = Rt.Atomic.get d.Descriptor.anchor in
        let id = d.Descriptor.id in
        match Anchor.state a with
        | Anchor.Empty -> (
            (* Retired or awaiting removal (it may linger only in a size
               class partial list) — or parked warm on the superblock
               cache, in which case its whole free list must be intact:
               all [maxcount] blocks chained from [avail] with no repeats,
               ready for adoption without re-initialization. *)
            let pubw = Rt.Atomic.get d.Descriptor.pub in
            if Pub_word.owned pubw || Pub_word.count pubw > 0 then
              fail "EMPTY desc %d with a live pub word %a" id Pub_word.pp pubw;
            (match Hashtbl.find_opt parked_ids id with
            | None -> ()
            | Some sc ->
                if d.Descriptor.sb = Addr.null then
                  fail "parked desc %d without superblock" id;
                if
                  Sc.block_size t.classes sc <> d.Descriptor.sz
                then
                  fail "parked desc %d: sz %d does not match class %d" id
                    d.Descriptor.sz sc;
                let seen = Array.make d.Descriptor.maxcount false in
                let idx = ref (Anchor.avail a) in
                for step = 1 to d.Descriptor.maxcount do
                  if !idx < 0 || !idx >= d.Descriptor.maxcount then
                    fail "parked desc %d: free-list index %d out of range \
                          at step %d" id !idx step;
                  if seen.(!idx) then
                    fail "parked desc %d: free list revisits block %d" id !idx;
                  seen.(!idx) <- true;
                  idx :=
                    Store.read_word t.store
                      (d.Descriptor.sb + (!idx * d.Descriptor.sz))
                done);
            match Hashtbl.find_opt refs id with
            | None -> ()
            | Some src ->
                if
                  not
                    ((String.length src > 11
                     && String.sub src 0 11 = "PartialList")
                    || (String.length src > 7 && String.sub src 0 7 = "SbCache"))
                then fail "EMPTY desc %d referenced from %s" id src)
        | st ->
            if d.Descriptor.sb = Addr.null then
              fail "desc %d in state %s without superblock" id
                (Anchor.state_to_string st);
            let reserved =
              Option.value (Hashtbl.find_opt active_reserved id) ~default:0
            in
            let pubw = Rt.Atomic.get d.Descriptor.pub in
            let owned_here = Hashtbl.mem owned_ids id in
            if Pub_word.owned pubw && not owned_here then
              fail "desc %d: pub word owned but in no thread's owned slot" id;
            if (not (Pub_word.owned pubw)) && Pub_word.count pubw > 0 then
              fail "desc %d: unowned pub word holds %d blocks" id
                (Pub_word.count pubw);
            if owned_here then begin
              if not (Pub_word.owned pubw) then
                fail "owned desc %d: pub word not marked owned" id;
              if st <> Anchor.Full then
                fail "owned desc %d: anchor %s, want FULL" id
                  (Anchor.state_to_string st)
            end;
            (match st with
            | Anchor.Active ->
                if reserved = 0 then
                  fail "ACTIVE desc %d not installed in any heap" id
            | Anchor.Full ->
                if Anchor.count a <> 0 then fail "FULL desc %d with count>0" id;
                (* Owner-biased mode: a FULL anchor is exactly the
                   frozen state of an owned superblock, so an [Owned]
                   reference is legal; anything else is the bug the
                   check has always caught. *)
                (match Hashtbl.find_opt refs id with
                | Some src
                  when not (String.length src >= 5 && String.sub src 0 5 = "Owned")
                  ->
                    fail "FULL desc %d referenced from %s" id src
                | _ -> ())
            | Anchor.Partial ->
                if Anchor.count a = 0 then fail "PARTIAL desc %d with count=0" id;
                if reserved > 0 then
                  fail "PARTIAL desc %d installed as an active superblock" id;
                if not (Hashtbl.mem refs id) then
                  fail "PARTIAL desc %d unreachable" id
            | Anchor.Empty -> assert false);
            let priv_n = if owned_here then d.Descriptor.priv_count else 0 in
            let pub_n = Pub_word.count pubw in
            let free_n = Anchor.count a + reserved in
            if free_n + priv_n + pub_n > d.Descriptor.maxcount then
              fail "desc %d: %d free blocks > maxcount %d" id
                (free_n + priv_n + pub_n)
                d.Descriptor.maxcount;
            (* Walk every free list: the anchor's, and in owner-biased
               mode the private LIFO and the public list, which
               together must cover disjoint blocks. *)
            let seen = Array.make d.Descriptor.maxcount false in
            let walk what head n =
              let idx = ref head in
              for step = 1 to n do
                if !idx < 0 || !idx >= d.Descriptor.maxcount then
                  fail "desc %d: %s index %d out of range at step %d" id what
                    !idx step;
                if seen.(!idx) then
                  fail "desc %d: %s revisits block %d" id what !idx;
                seen.(!idx) <- true;
                idx :=
                  Store.read_word t.store
                    (d.Descriptor.sb + (!idx * d.Descriptor.sz))
              done
            in
            walk "free-list" (Anchor.avail a) free_n;
            if priv_n > 0 then walk "private-list" d.Descriptor.priv_head priv_n;
            if pub_n > 0 then walk "public-list" (Pub_word.head pubw) pub_n;
            (* Every block not on the free list is allocated and must carry
               this descriptor in its prefix. *)
            for i = 0 to d.Descriptor.maxcount - 1 do
              if not seen.(i) then begin
                let p =
                  Store.read_word t.store
                    (d.Descriptor.sb + (i * d.Descriptor.sz))
                in
                if Prefix.is_large p || Prefix.desc_id p <> id then
                  fail "desc %d: allocated block %d has corrupt prefix" id i
              end
            done)

  module Pack = Mm_mem.Alloc_intf.Pack (Rt)

  let instance ?name:(n = name) vrt t =
    Pack.make ~name:n ~rt:vrt ~store:(store t) ~malloc:(malloc t)
      ~free:(free t) ~usable_size:(usable_size t)
      ~check:(fun () -> check_invariants t)
end
