module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Lf_alloc = Lf_alloc.Make (Rt)
  module Descriptor = Descriptor.Make (Rt)

  module Cfg = Mm_mem.Alloc_config
  module Addr = Mm_mem.Addr
  module Sc = Mm_mem.Size_class
  module Store = Mm_mem.Store.Make (Rt)
  module Prefix = Mm_mem.Block_prefix

  (* Per-thread state. Strictly single-owner: only the thread with the
     matching dense id ever touches it, so there is no CAS and no retry
     window anywhere in this file — the only shared-structure operations
     are the batched Lf_alloc calls, which are lock-free. *)
  type cache = {
    stacks : int array array;  (* [size class] -> LIFO of base payloads *)
    lens : int array;
    remote : int array;  (* mixed-class buffer of remote-heap payloads *)
    mutable remote_len : int;
    batch : int array;  (* the overflow flush's [cache_batch] blocks *)
  }

  type stats = {
    hits : int;
    misses : int;
    refills : int;
    refilled_blocks : int;
    flushes : int;
    flushed_blocks : int;
    remote_frees : int;
  }

  type t = {
    backend : Lf_alloc.t;
    store : Store.t;
    classes : Sc.t;
    nheaps : int;
    rt : Rt.t;
    cfg : Cfg.t;
    enabled : bool;
    caches : cache array;  (* indexed by Rt.self *)
    (* striped per-thread statistics *)
    hits : int array;
    misses : int array;
    refills : int array;
    refilled_blocks : int array;
    flushes : int array;
    flushed_blocks : int array;
    remote_frees : int array;
    mallocs : int array;
    frees : int array;
  }

  let name = "new-cached"

  let create rt (cfg : Cfg.t) =
    let backend = Lf_alloc.create rt cfg in
    let nclasses = Sc.count (Lf_alloc.size_classes backend) in
    let mk_cache _ =
      {
        stacks =
          Array.init nclasses (fun _ -> Array.make cfg.cache_blocks Addr.null);
        lens = Array.make nclasses 0;
        remote = Array.make cfg.cache_batch Addr.null;
        remote_len = 0;
        batch = Array.make cfg.cache_batch Addr.null;
      }
    in
    {
      backend;
      store = Lf_alloc.store backend;
      classes = Lf_alloc.size_classes backend;
      nheaps = Lf_alloc.nheaps backend;
      rt;
      cfg;
      enabled = cfg.cache;
      caches = Array.init Rt.max_threads mk_cache;
      hits = Array.make Rt.max_threads 0;
      misses = Array.make Rt.max_threads 0;
      refills = Array.make Rt.max_threads 0;
      refilled_blocks = Array.make Rt.max_threads 0;
      flushes = Array.make Rt.max_threads 0;
      flushed_blocks = Array.make Rt.max_threads 0;
      remote_frees = Array.make Rt.max_threads 0;
      mallocs = Array.make Rt.max_threads 0;
      frees = Array.make Rt.max_threads 0;
    }

  let backend t = t.backend
  let rt t = t.rt
  let store t = t.store
  let usable_size t payload = Lf_alloc.usable_size t.backend payload

  (* Hot entry points resolve [Rt.self] once (a domain-local lookup on
     the real runtime) and index the striped state directly. *)
  let bump_at tid arr = arr.(tid) <- arr.(tid) + 1
  let add_at tid arr n = arr.(tid) <- arr.(tid) + n

  let malloc t n =
    if not t.enabled then Lf_alloc.malloc t.backend n
    else begin
      if n < 0 then invalid_arg "Lf_alloc.malloc: negative size";
      let tid = Rt.self t.rt in
      bump_at tid t.mallocs;
      let sc = Sc.class_of_request t.classes n in
      if sc = Sc.large then Lf_alloc.malloc t.backend n
      else begin
        let c = t.caches.(tid) in
        if c.lens.(sc) > 0 then begin
          (* Hit: pure thread-local pop, zero shared accesses. *)
          bump_at tid t.hits;
          Rt.obs_event t.rt Rt.Obs.Transition "bc.hit";
          c.lens.(sc) <- c.lens.(sc) - 1;
          c.stacks.(sc).(c.lens.(sc))
        end
        else begin
          bump_at tid t.misses;
          Rt.obs_event t.rt Rt.Obs.Transition "bc.miss";
          (* The empty stack takes the batch ([cache_batch <=
             cache_blocks]); its length stays 0 until the batch is in. *)
          let st = c.stacks.(sc) in
          let got =
            Lf_alloc.refill_batch t.backend ~sc ~max:t.cfg.cache_batch st
          in
          if got = 0 then
            (* No active superblock: the ordinary Fig. 4 slow paths
               (partial / new superblock) install one. *)
            Lf_alloc.malloc t.backend n
          else begin
            bump_at tid t.refills;
            add_at tid t.refilled_blocks got;
            Rt.obs_event t.rt Rt.Obs.Transition "bc.refill";
            (* Hand out the first block popped; the rest stack in pop
               order. *)
            let payload = st.(0) in
            Array.blit st 1 st 0 (got - 1);
            c.lens.(sc) <- got - 1;
            payload
          end
        end
      end
    end

  (* Every flush forgets its blocks (lowers the length) BEFORE
     publishing them: a thread killed inside the flush then leaks them,
     whereas a cache still listing published blocks would hand them out
     a second time when its thread id is reused. *)
  let flush_remote t tid (c : cache) =
    let n = c.remote_len in
    if n > 0 then begin
      bump_at tid t.flushes;
      add_at tid t.flushed_blocks n;
      Rt.obs_event t.rt Rt.Obs.Transition "bc.flush";
      c.remote_len <- 0;
      Lf_alloc.flush_batch t.backend c.remote n
    end

  (* Overflow eviction: flush the [cache_batch] oldest (bottom-of-stack)
     blocks so the most recently freed — hottest in cache — stay. *)
  let flush_overflow t tid (c : cache) sc =
    let k = t.cfg.cache_batch in
    bump_at tid t.flushes;
    add_at tid t.flushed_blocks k;
    Rt.obs_event t.rt Rt.Obs.Transition "bc.flush";
    let st = c.stacks.(sc) in
    Array.blit st 0 c.batch 0 k;
    Array.blit st k st 0 (c.lens.(sc) - k);
    c.lens.(sc) <- c.lens.(sc) - k;
    Lf_alloc.flush_batch t.backend c.batch k

  let free t payload =
    if not t.enabled then Lf_alloc.free t.backend payload
    else if payload = Addr.null then ()
    else begin
      let tid = Rt.self t.rt in
      bump_at tid t.frees;
      let w = Store.read_word t.store (payload - Prefix.prefix_bytes) in
      let gid = Lf_alloc.classify t.backend payload w in
      if gid < 0 then Lf_alloc.free t.backend payload
      else begin
        let base_payload = Prefix.base_payload payload w in
        let sc = gid / t.nheaps in
        let c = t.caches.(tid) in
        if gid - (sc * t.nheaps) = tid mod t.nheaps then begin
          if c.lens.(sc) = t.cfg.cache_blocks then flush_overflow t tid c sc;
          c.stacks.(sc).(c.lens.(sc)) <- base_payload;
          c.lens.(sc) <- c.lens.(sc) + 1
        end
        else begin
          (* Remote block: never cache another heap's blocks (they would
             be handed out by the wrong heap's threads and defeat the
             paper's heap affinity); buffer and push back in batches. *)
          bump_at tid t.remote_frees;
          c.remote.(c.remote_len) <- base_payload;
          c.remote_len <- c.remote_len + 1;
          if c.remote_len = t.cfg.cache_batch then flush_remote t tid c
        end
      end
    end

  let flush_current t =
    let tid = Rt.self t.rt in
    let c = t.caches.(tid) in
    Array.iteri
      (fun sc len ->
        if len > 0 then begin
          bump_at tid t.flushes;
          add_at tid t.flushed_blocks len;
          Rt.obs_event t.rt Rt.Obs.Transition "bc.flush";
          c.lens.(sc) <- 0;
          Lf_alloc.flush_batch t.backend c.stacks.(sc) len
        end)
      c.lens;
    flush_remote t tid c

  let sum = Array.fold_left ( + ) 0

  let stats t : stats =
    {
      hits = sum t.hits;
      misses = sum t.misses;
      refills = sum t.refills;
      refilled_blocks = sum t.refilled_blocks;
      flushes = sum t.flushes;
      flushed_blocks = sum t.flushed_blocks;
      remote_frees = sum t.remote_frees;
    }

  let op_counts t =
    if t.enabled then (sum t.mallocs, sum t.frees)
    else Lf_alloc.op_counts t.backend

  let cached_blocks t =
    Array.fold_left
      (fun acc c -> acc + sum c.lens + c.remote_len)
      0 t.caches

  let fail fmt = Format.kasprintf failwith fmt

  let check_invariants t =
    (* Frontend structure: lengths in range, every cached payload unique
       (a double free could smuggle a duplicate in, which would become a
       double allocation on two later hits), and every cached payload
       carries a small-block prefix of the class it is filed under. Then
       the backend's full invariants — cached blocks count as allocated
       there, so nothing below can reclaim their superblocks. *)
    let classes = t.classes in
    let st = t.store in
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let check_block ~tid ~where p =
      if Hashtbl.mem seen p then
        fail "block cache: payload %d cached twice (thread %d, %s)" p tid where;
      Hashtbl.add seen p ();
      let prefix = Store.read_word st (p - Prefix.prefix_bytes) in
      if Prefix.is_large prefix then
        fail "block cache: large block %d cached (thread %d, %s)" p tid where
    in
    Array.iteri
      (fun tid c ->
        Array.iteri
          (fun sc len ->
            if len < 0 || len > t.cfg.cache_blocks then
              fail "block cache: thread %d class %d length %d out of [0, %d]"
                tid sc len t.cfg.cache_blocks;
            for i = 0 to len - 1 do
              let p = c.stacks.(sc).(i) in
              check_block ~tid ~where:(Printf.sprintf "class %d" sc) p;
              let prefix = Store.read_word st (p - Prefix.prefix_bytes) in
              let d =
                Descriptor.get (Lf_alloc.descriptor_table t.backend)
                  (Prefix.desc_id prefix)
              in
              if d.Descriptor.sz <> Sc.block_size classes sc then
                fail
                  "block cache: thread %d class %d holds a %d-byte block \
                   (expected %d)"
                  tid sc d.Descriptor.sz
                  (Sc.block_size classes sc)
            done)
          c.lens;
        if c.remote_len < 0 || c.remote_len > t.cfg.cache_batch then
          fail "block cache: thread %d remote buffer length %d out of [0, %d]"
            tid c.remote_len t.cfg.cache_batch;
        for i = 0 to c.remote_len - 1 do
          check_block ~tid ~where:"remote buffer" c.remote.(i)
        done)
      t.caches;
    Lf_alloc.check_invariants t.backend

  module Pack = Mm_mem.Alloc_intf.Pack (Rt)

  let instance ?name:(n = name) vrt t =
    Pack.make ~name:n ~rt:vrt ~store:(store t) ~malloc:(malloc t)
      ~free:(free t) ~usable_size:(usable_size t)
      ~check:(fun () -> check_invariants t)
end
