open Exochi_memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Phys_mem ---- *)

let test_phys_rw () =
  let m = Phys_mem.create ~frames:16 in
  Phys_mem.write_u32 m 0x1000 0xDEADBEEFl;
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Phys_mem.read_u32 m 0x1000);
  check_int "u8 low byte" 0xEF (Phys_mem.read_u8 m 0x1000);
  Phys_mem.write_u16 m 0x1004 0xABCD;
  check_int "u16" 0xABCD (Phys_mem.read_u16 m 0x1004);
  Phys_mem.write_u64 m 0x1008 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Phys_mem.read_u64 m 0x1008)

let test_phys_unallocated_reads_zero () =
  let m = Phys_mem.create ~frames:16 in
  Alcotest.(check int32) "zero" 0l (Phys_mem.read_u32 m 0x3000)

let test_phys_alloc_exhaustion () =
  let m = Phys_mem.create ~frames:2 in
  ignore (Phys_mem.alloc_frame m);
  ignore (Phys_mem.alloc_frame m);
  Alcotest.check_raises "exhausted" Phys_mem.Out_of_memory_frames (fun () ->
      ignore (Phys_mem.alloc_frame m))

let test_phys_free_reuse () =
  let m = Phys_mem.create ~frames:2 in
  let a = Phys_mem.alloc_frame m in
  ignore (Phys_mem.alloc_frame m);
  Phys_mem.write_u32 m (a * 4096) 42l;
  Phys_mem.free_frame m a;
  let a' = Phys_mem.alloc_frame m in
  check_int "frame reused" a a';
  Alcotest.(check int32) "reused frame zeroed" 0l (Phys_mem.read_u32 m (a * 4096))

let test_phys_straddle_rejected () =
  let m = Phys_mem.create ~frames:16 in
  Alcotest.check_raises "straddle"
    (Invalid_argument "Phys_mem: access straddles a frame boundary") (fun () ->
      ignore (Phys_mem.read_u32 m 4094))

let test_phys_blit_roundtrip () =
  let m = Phys_mem.create ~frames:16 in
  let src = Bytes.of_string "hello, straddling world!" in
  Phys_mem.blit_of_bytes m ~src ~src_off:0 ~dst:4090 ~len:(Bytes.length src);
  let dst = Bytes.create (Bytes.length src) in
  Phys_mem.blit_to_bytes m ~src:4090 ~dst ~dst_off:0 ~len:(Bytes.length src);
  Alcotest.(check string) "roundtrip across frames" (Bytes.to_string src)
    (Bytes.to_string dst)

(* ---- Pte ---- *)

let prop_ia32_pte_roundtrip =
  QCheck.Test.make ~name:"ia32 pte make/decode roundtrip" ~count:500
    QCheck.(
      tup7 bool bool bool bool bool bool (int_bound 0xFFFFF))
    (fun (p, w, u, wt, cd, a, frame) ->
      let attrs =
        {
          Pte.Ia32.present = p;
          writable = w;
          user = u;
          write_through = wt;
          cache_disable = cd;
          accessed = a;
          dirty = false;
          frame;
        }
      in
      Pte.Ia32.decode (Pte.Ia32.make attrs) = attrs)

let prop_x3k_pte_roundtrip =
  QCheck.Test.make ~name:"x3k pte make/decode roundtrip" ~count:500
    QCheck.(
      tup4 bool (int_bound 2) (int_bound 2) (int_bound 0xFFFFFFF))
    (fun (v, cache, tiling, frame) ->
      let attrs =
        {
          Pte.X3k.valid = v;
          cache =
            (match cache with
            | 0 -> Pte.X3k.Uncached
            | 1 -> Pte.X3k.Write_combining
            | _ -> Pte.X3k.Write_back);
          tiling =
            (match tiling with
            | 0 -> Pte.X3k.Linear
            | 1 -> Pte.X3k.Tiled_x
            | _ -> Pte.X3k.Tiled_y);
          write_enable = true;
          frame;
        }
      in
      Pte.X3k.decode (Pte.X3k.make attrs) = attrs)

let test_transcode_semantics () =
  let ia32 =
    Pte.Ia32.make
      {
        Pte.Ia32.present = true;
        writable = true;
        user = true;
        write_through = false;
        cache_disable = false;
        accessed = false;
        dirty = false;
        frame = 0x4242;
      }
  in
  let x = Pte.transcode ia32 ~tiling:Pte.X3k.Tiled_y in
  let a = Pte.X3k.decode x in
  check_bool "valid" true a.Pte.X3k.valid;
  check_bool "write enable" true a.Pte.X3k.write_enable;
  check_int "frame carried" 0x4242 a.Pte.X3k.frame;
  check_bool "tiling from descriptor" true (a.Pte.X3k.tiling = Pte.X3k.Tiled_y);
  check_bool "cache WB" true (a.Pte.X3k.cache = Pte.X3k.Write_back)

let test_transcode_cache_mapping () =
  let mk ~wt ~cd =
    Pte.transcode
      (Pte.Ia32.make
         {
           Pte.Ia32.present = true;
           writable = false;
           user = true;
           write_through = wt;
           cache_disable = cd;
           accessed = false;
           dirty = false;
           frame = 1;
         })
      ~tiling:Pte.X3k.Linear
  in
  check_bool "PCD -> UC" true
    ((Pte.X3k.decode (mk ~wt:false ~cd:true)).Pte.X3k.cache = Pte.X3k.Uncached);
  check_bool "PWT -> WC" true
    ((Pte.X3k.decode (mk ~wt:true ~cd:false)).Pte.X3k.cache
    = Pte.X3k.Write_combining)

let test_transcode_absent () =
  check_bool "absent stays absent" true
    (Pte.transcode Pte.Ia32.absent ~tiling:Pte.X3k.Linear = Pte.X3k.absent)

let prop_transcode_back =
  QCheck.Test.make ~name:"transcode_back inverts frame+perm" ~count:200
    QCheck.(pair bool (int_bound 0xFFFFF))
    (fun (w, frame) ->
      let ia32 =
        Pte.Ia32.make
          {
            Pte.Ia32.present = true;
            writable = w;
            user = true;
            write_through = false;
            cache_disable = false;
            accessed = false;
            dirty = false;
            frame;
          }
      in
      let back = Pte.transcode_back (Pte.transcode ia32 ~tiling:Pte.X3k.Linear) in
      let a = Pte.Ia32.decode back in
      a.Pte.Ia32.frame = frame && a.Pte.Ia32.writable = w && a.Pte.Ia32.present)

(* ---- Page_table ---- *)

let mk_pte frame =
  Pte.Ia32.make
    {
      Pte.Ia32.present = true;
      writable = true;
      user = true;
      write_through = false;
      cache_disable = false;
      accessed = false;
      dirty = false;
      frame;
    }

let test_pt_map_walk () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:0x12345 ~pte:(mk_pte 77);
  (match Page_table.walk pt ~vpage:0x12345 with
  | Page_table.Mapped e -> check_int "frame" 77 (Pte.Ia32.frame e)
  | _ -> Alcotest.fail "expected mapped");
  check_bool "unmapped vpage" true (Page_table.walk pt ~vpage:0x54321 <> Page_table.Mapped Pte.Ia32.absent);
  (match Page_table.walk pt ~vpage:0x12346 with
  | Page_table.Not_present -> ()
  | Page_table.No_table -> Alcotest.fail "same table should exist"
  | _ -> Alcotest.fail "should be not present")

let test_pt_unmap () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:5 ~pte:(mk_pte 9);
  Page_table.unmap pt ~vpage:5;
  check_bool "unmapped" true (Page_table.walk pt ~vpage:5 = Page_table.Not_present)

let test_pt_translate_sets_bits () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:2 ~pte:(mk_pte 3);
  check_int "translation" 3 (Page_table.access pt ~vpage:2 ~write:true);
  check_int "unmapped" (-1) (Page_table.access pt ~vpage:9 ~write:false);
  match Page_table.walk pt ~vpage:2 with
  | Page_table.Mapped e ->
    let a = Pte.Ia32.decode e in
    check_bool "accessed" true a.Pte.Ia32.accessed;
    check_bool "dirty" true a.Pte.Ia32.dirty
  | _ -> Alcotest.fail "mapped"

let test_pt_walk_reads_counted () =
  let m = Phys_mem.create ~frames:64 in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:1 ~pte:(mk_pte 2);
  let before = Page_table.walk_reads pt in
  ignore (Page_table.walk pt ~vpage:1);
  check_bool "two-level walk costs reads" true (Page_table.walk_reads pt - before >= 2)

let test_pt_tables_live_in_phys_mem () =
  let m = Phys_mem.create ~frames:64 in
  let used0 = Phys_mem.frames_allocated m in
  let pt = Page_table.create m in
  Page_table.map pt ~vpage:0 ~pte:(mk_pte 1);
  check_bool "directory+table frames allocated" true
    (Phys_mem.frames_allocated m >= used0 + 2)

(* ---- Tlb ---- *)

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:4 in
  check_bool "miss" true (Tlb.lookup t ~vpage:1 ~absent:"" = "");
  Tlb.insert t ~vpage:1 "a";
  check_bool "hit" true (Tlb.lookup t ~vpage:1 ~absent:"" = "a");
  check_int "hits" 1 (Tlb.hits t);
  check_int "misses" 1 (Tlb.misses t)

let test_tlb_lru_eviction () =
  let t = Tlb.create ~entries:2 in
  Tlb.insert t ~vpage:1 1;
  Tlb.insert t ~vpage:2 2;
  ignore (Tlb.lookup t ~vpage:1 ~absent:0);
  (* 2 is now LRU *)
  Tlb.insert t ~vpage:3 3;
  check_bool "1 kept" true (Tlb.lookup t ~vpage:1 ~absent:0 = 1);
  check_bool "2 evicted" true (Tlb.lookup t ~vpage:2 ~absent:0 = 0);
  check_int "occupancy bounded" 2 (Tlb.occupancy t)

let test_tlb_invalidate_flush () =
  let t = Tlb.create ~entries:4 in
  Tlb.insert t ~vpage:1 1;
  Tlb.insert t ~vpage:2 2;
  Tlb.invalidate t ~vpage:1;
  check_bool "invalidated" true (Tlb.lookup t ~vpage:1 ~absent:0 = 0);
  Tlb.flush t;
  check_int "flushed" 0 (Tlb.occupancy t)

(* The TLB against a naive LRU model: an association list of
   (vpage, payload, last use) where a full insert evicts the entry with
   the oldest use. Lookups, occupancy and counters must agree after
   every operation. *)
type tlb_op = Insert of int * int | Lookup of int | Invalidate of int

let prop_tlb_matches_lru_model =
  (* small pages, plus multiples of 16 that share the TLB's lookup-memo
     slots with them *)
  let vpage = QCheck.Gen.(oneof [ int_bound 9; map (fun k -> 16 * k) (int_bound 4) ]) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun v p -> Insert (v, p)) vpage (int_bound 1000));
          (5, map (fun v -> Lookup v) vpage);
          (1, map (fun v -> Invalidate v) vpage);
        ])
  in
  let print = function
    | Insert (v, p) -> Printf.sprintf "insert %d %d" v p
    | Lookup v -> Printf.sprintf "lookup %d" v
    | Invalidate v -> Printf.sprintf "invalidate %d" v
  in
  QCheck.Test.make ~name:"tlb matches naive LRU model" ~count:300
    QCheck.(
      pair (int_range 1 5)
        (make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (int_bound 60) op)))
    (fun (cap, ops) ->
      let t = Tlb.create ~entries:cap in
      let model = ref [] and tick = ref 0 and hits = ref 0 and misses = ref 0 in
      List.for_all
        (fun o ->
          incr tick;
          let agrees =
            match o with
            | Insert (v, p) ->
              Tlb.insert t ~vpage:v p;
              let rest = List.filter (fun (v', _, _) -> v' <> v) !model in
              let rest =
                if List.length rest = List.length !model && List.length rest >= cap
                then begin
                  let oldest =
                    List.fold_left
                      (fun acc (v', _, u) ->
                        match acc with
                        | Some (_, u') when u' <= u -> acc
                        | _ -> Some (v', u))
                      None rest
                  in
                  match oldest with
                  | Some (victim, _) -> List.filter (fun (v', _, _) -> v' <> victim) rest
                  | None -> rest
                end
                else rest
              in
              model := (v, p, !tick) :: rest;
              true
            | Lookup v -> (
              let got = Tlb.lookup t ~vpage:v ~absent:(-1) in
              match List.find_opt (fun (v', _, _) -> v' = v) !model with
              | Some (_, p, _) ->
                incr hits;
                model :=
                  (v, p, !tick) :: List.filter (fun (v', _, _) -> v' <> v) !model;
                got = p
              | None ->
                incr misses;
                got = -1)
            | Invalidate v ->
              Tlb.invalidate t ~vpage:v;
              model := List.filter (fun (v', _, _) -> v' <> v) !model;
              true
          in
          agrees
          && Tlb.occupancy t = List.length !model
          && Tlb.hits t = !hits
          && Tlb.misses t = !misses)
        ops)

(* ---- Cache ---- *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  let r1 = Cache.access c ~addr:0 ~write:false in
  check_bool "first is a clean miss" true (r1 = Cache.miss);
  let r2 = Cache.access c ~addr:32 ~write:false in
  check_bool "same line hits" true (r2 = Cache.hit)

let test_cache_writeback_on_eviction () =
  (* 2-way, 8 sets: three lines mapping to set 0 force an eviction *)
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  let set_stride = 64 * 8 in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:set_stride ~write:false);
  let r = Cache.access c ~addr:(2 * set_stride) ~write:false in
  check_int "dirty victim written back" 0 r

let test_cache_flush_all () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:64 ~write:false);
  let dirty = Cache.flush_all c in
  check_int "one dirty line" 1 (List.length dirty);
  check_int "cache empty" 0 (Cache.valid_line_count c)

let test_cache_flush_range () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:512 ~write:true);
  let dirty = Cache.flush_range c ~addr:0 ~len:64 in
  check_int "only range flushed" 1 (List.length dirty);
  check_int "other line still dirty" 1 (Cache.dirty_line_count c)

let test_cache_snoop_and_probe () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  ignore (Cache.access c ~addr:0 ~write:true);
  check_bool "probe dirty" true (Cache.probe c ~line_addr:0 = `Dirty);
  check_bool "probe leaves state" true (Cache.probe c ~line_addr:0 = `Dirty);
  check_bool "snoop dirty" true (Cache.snoop c ~line_addr:0 = `Dirty);
  check_bool "snoop invalidates" true (Cache.probe c ~line_addr:0 = `Absent)

(* An 8-byte access at 60 covers two lines: it misses twice, and both
   lines then hit. *)
let test_cache_range_spanning () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:64 ~ways:2 in
  let results = Array.make 2 Cache.hit in
  check_int "spans two lines" 2 (Cache.access_lines c ~addr:60 ~len:8 ~write:false results);
  Array.iter (fun r -> check_bool "line misses" true (r = Cache.miss)) results;
  check_bool "low byte hits" true (Cache.access c ~addr:60 ~write:false = Cache.hit);
  check_bool "high byte hits" true (Cache.access c ~addr:67 ~write:false = Cache.hit);
  check_int "misses" 2 (Cache.misses c)

(* The cache against a naive model: per set, a list of (tag, dirty,
   last use) holding at most [ways] lines, where a fill into a full set
   evicts the line with the oldest use. Every result, the counters and
   the line counts must agree after each operation. A range access is
   single-line accesses, highest line first, reported in address
   order. *)
type cache_op =
  | Access of int * bool
  | Access_lines of int * int * bool
  | Snoop of int
  | Probe of int
  | Flush_range of int * int
  | Flush_all

let prop_cache_matches_model =
  let line_bytes = 16 and ways = 2 and sets = 4 in
  let addr = QCheck.Gen.(oneof [ int_bound 31; int_bound 511 ]) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (8, map2 (fun a w -> Access (a, w)) addr bool);
          (2, map3 (fun a l w -> Access_lines (a, l, w)) addr (int_range 1 80) bool);
          (3, map (fun a -> Snoop a) addr);
          (2, map (fun a -> Probe a) addr);
          (1, map2 (fun a l -> Flush_range (a, l)) addr (int_bound 80));
          (1, return Flush_all);
        ])
  in
  let print = function
    | Access (a, w) -> Printf.sprintf "access %d %b" a w
    | Access_lines (a, l, w) -> Printf.sprintf "access_lines %d %d %b" a l w
    | Snoop a -> Printf.sprintf "snoop %d" a
    | Probe a -> Printf.sprintf "probe %d" a
    | Flush_range (a, l) -> Printf.sprintf "flush_range %d %d" a l
    | Flush_all -> "flush_all"
  in
  QCheck.Test.make ~name:"cache matches naive model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (int_bound 80) op))
    (fun ops ->
      let c =
        Cache.create ~name:"m" ~size_bytes:(line_bytes * ways * sets) ~line_bytes ~ways
      in
      let model = Array.make sets [] in
      let tick = ref 0 and hits = ref 0 and misses = ref 0 and wbs = ref 0 in
      let split a = (a / line_bytes mod sets, a / line_bytes / sets) in
      let line_addr set tag = ((tag * sets) + set) * line_bytes in
      let find a =
        let set, tag = split a in
        (set, tag, List.find_opt (fun (t', _, _) -> t' = tag) model.(set))
      in
      let drop set tag = model.(set) <- List.filter (fun (t', _, _) -> t' <> tag) model.(set) in
      (* remove a line; its state as the cache reports it *)
      let clean a =
        match find a with
        | _, _, None -> `Absent
        | set, tag, Some (_, d, _) ->
          drop set tag;
          if d then begin
            incr wbs;
            `Dirty
          end
          else `Clean
      in
      let dirty_lines () =
        let acc = ref [] in
        Array.iteri
          (fun set ls -> List.iter (fun (tag, d, _) -> if d then acc := line_addr set tag :: !acc) ls)
          model;
        List.sort compare !acc
      in
      let access a w =
        incr tick;
        let set, tag, l = find a in
        match l with
        | Some (_, d, _) ->
          incr hits;
          drop set tag;
          model.(set) <- (tag, d || w, !tick) :: model.(set);
          Cache.hit
        | None ->
          incr misses;
          let r =
            if List.length model.(set) < ways then Cache.miss
            else begin
              let vt, vd, _ =
                List.fold_left
                  (fun ((_, _, u) as acc) ((_, _, u') as l) -> if u' < u then l else acc)
                  (List.hd model.(set)) model.(set)
              in
              drop set vt;
              if vd then begin
                incr wbs;
                line_addr set vt
              end
              else Cache.miss
            end
          in
          model.(set) <- (tag, w, !tick) :: model.(set);
          r
      in
      let results = Array.make 8 Cache.hit in
      List.for_all
        (fun o ->
          let agrees =
            match o with
            | Access (a, w) -> Cache.access c ~addr:a ~write:w = access a w
            | Access_lines (a, l, w) ->
              let n = Cache.access_lines c ~addr:a ~len:l ~write:w results in
              let first = a / line_bytes and last = (a + l - 1) / line_bytes in
              let expect = Array.make (last - first + 1) Cache.hit in
              for line = last downto first do
                expect.(line - first) <- access (line * line_bytes) w
              done;
              n = Array.length expect && Array.sub results 0 n = expect
            | Snoop a -> Cache.snoop c ~line_addr:a = clean a
            | Probe a ->
              Cache.probe c ~line_addr:a
              = (match find a with
                | _, _, None -> `Absent
                | _, _, Some (_, d, _) -> if d then `Dirty else `Clean)
            | Flush_range (a, l) ->
              let got = Cache.flush_range c ~addr:a ~len:l in
              let expect = ref [] in
              if l > 0 then
                for line = (a + l - 1) / line_bytes downto a / line_bytes do
                  if clean (line * line_bytes) = `Dirty then
                    expect := (line * line_bytes) :: !expect
                done;
              got = !expect
            | Flush_all ->
              let expect = dirty_lines () in
              Array.iter (List.iter (fun (_, d, _) -> if d then incr wbs)) model;
              Array.fill model 0 sets [];
              List.sort compare (Cache.flush_all c) = expect
          in
          agrees
          && Cache.hits c = !hits
          && Cache.misses c = !misses
          && Cache.writebacks c = !wbs
          && Cache.valid_line_count c = Array.fold_left (fun n ls -> n + List.length ls) 0 model
          && Cache.dirty_line_count c = List.length (dirty_lines ()))
        ops)

(* ---- Bus ---- *)

let test_bus_serialises () =
  let b = Bus.create ~gbps:8.0 ~latency_ps:1000 in
  let t1 = Bus.request b ~now_ps:0 ~bytes:64 in
  let t2 = Bus.request b ~now_ps:0 ~bytes:64 in
  check_bool "second waits" true (t2 > t1);
  check_int "bytes accounted" 128 (Bus.total_bytes b)

let test_bus_latency_optional () =
  let b = Bus.create ~gbps:8.0 ~latency_ps:1000 in
  let t1 = Bus.request ~latency:false b ~now_ps:0 ~bytes:8 in
  check_int "transfer only" 1000 t1

(* ---- Surface ---- *)

let test_surface_linear_addr () =
  let s =
    Surface.make ~id:1 ~name:"s" ~base:0x1000 ~width:100 ~height:10 ~bpp:1
      ~tiling:Surface.Linear ~mode:Surface.Input
  in
  check_int "pitch aligned" 128 s.Surface.pitch;
  check_int "addr" (0x1000 + 128 + 5) (Surface.element_addr s ~x:5 ~y:1)

let test_surface_bounds_checked () =
  let s =
    Surface.make ~id:1 ~name:"s" ~base:0 ~width:10 ~height:10 ~bpp:1
      ~tiling:Surface.Linear ~mode:Surface.Input
  in
  check_bool "raises" true
    (try
       ignore (Surface.element_addr s ~x:10 ~y:0);
       false
     with Invalid_argument _ -> true)

let prop_tiled_bijective tiling name =
  QCheck.Test.make ~name ~count:300
    QCheck.(pair (int_bound 299) (int_bound 99))
    (fun (x, y) ->
      let s =
        Surface.make ~id:1 ~name:"t" ~base:0 ~width:300 ~height:100 ~bpp:1
          ~tiling ~mode:Surface.Input
      in
      let a = Surface.element_addr s ~x ~y in
      (* in range, and distinct from the left neighbour when one exists *)
      a >= 0
      && a < Surface.byte_size s
      && (x = 0 || a <> Surface.element_addr s ~x:(x - 1) ~y))

let test_surface_tiled_distinct_addresses () =
  (* exhaustive injectivity on a small tiled surface *)
  List.iter
    (fun tiling ->
      let s =
        Surface.make ~id:1 ~name:"t" ~base:0 ~width:140 ~height:40 ~bpp:1
          ~tiling ~mode:Surface.Input
      in
      let seen = Hashtbl.create 5600 in
      for y = 0 to 39 do
        for x = 0 to 139 do
          let a = Surface.element_addr s ~x ~y in
          check_bool "in backing range" true (a >= 0 && a < Surface.byte_size s);
          check_bool "no collision" false (Hashtbl.mem seen a);
          Hashtbl.replace seen a ()
        done
      done)
    [ Surface.Tiled_x; Surface.Tiled_y ]

let test_surface_contains () =
  let s =
    Surface.make ~id:1 ~name:"s" ~base:0x2000 ~width:64 ~height:4 ~bpp:4
      ~tiling:Surface.Linear ~mode:Surface.Output
  in
  check_bool "inside" true (Surface.contains s ~vaddr:0x2000);
  check_bool "outside" false (Surface.contains s ~vaddr:(0x2000 + Surface.byte_size s))

(* ---- Address_space ---- *)

let test_aspace_rw_roundtrip () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  let base = Address_space.alloc a ~name:"buf" ~bytes:10000 ~align:64 in
  Address_space.write_u32 a base 123456789l;
  Address_space.write_u32 a (base + 8000) 42l;
  Alcotest.(check int32) "near" 123456789l (Address_space.read_u32 a base);
  Alcotest.(check int32) "far page" 42l (Address_space.read_u32 a (base + 8000));
  check_bool "faults serviced" true (Address_space.minor_faults a >= 2)

let test_aspace_bytes_straddle_pages () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  let base = Address_space.alloc a ~name:"buf" ~bytes:16384 ~align:4096 in
  let data = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
  Address_space.write_bytes a ~vaddr:(base + 3000) data;
  let got = Address_space.read_bytes a ~vaddr:(base + 3000) ~len:5000 in
  Alcotest.(check string) "straddling roundtrip" (Bytes.to_string data)
    (Bytes.to_string got)

let test_aspace_segfault () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  check_bool "segfault outside regions" true
    (try
       ignore (Address_space.read_u8 a 0x500);
       false
     with Address_space.Segfault _ -> true)

let test_aspace_unaligned_u32 () =
  let m = Phys_mem.create ~frames:256 in
  let a = Address_space.create m in
  let base = Address_space.alloc a ~name:"b" ~bytes:8192 ~align:4096 in
  (* write a u32 straddling a page boundary *)
  Address_space.write_u32 a (base + 4094) 0x11223344l;
  Alcotest.(check int32) "straddled u32" 0x11223344l
    (Address_space.read_u32 a (base + 4094))

(* A 5-page region at a base that is not page aligned, with its first
   pages written and the rest never touched (unmapped), so a read faults
   some pages in. *)
let fold_rig () =
  let m = Phys_mem.create ~frames:64 in
  let a = Address_space.create m in
  ignore (Address_space.alloc a ~name:"pad" ~bytes:100 ~align:64);
  let size = 5 * Phys_mem.page_size in
  let base = Address_space.alloc a ~name:"buf" ~bytes:size ~align:64 in
  Address_space.write_bytes a ~vaddr:base
    (Bytes.init 9000 (fun i -> Char.chr ((i * 37 + (i lsr 8)) land 0xff)));
  (a, base, size)

(* Accessed/dirty bits of every page the region spans; None = unmapped. *)
let region_bits a base size =
  List.init
    ((size / Phys_mem.page_size) + 2)
    (fun k ->
      match
        Page_table.walk (Address_space.page_table a)
          ~vpage:((base lsr Phys_mem.page_shift) + k)
      with
      | Page_table.Mapped e ->
        let at = Pte.Ia32.decode e in
        Some (at.Pte.Ia32.accessed, at.Pte.Ia32.dirty)
      | Page_table.No_table | Page_table.Not_present -> None)

let prop_fold_range_matches_read_bytes =
  QCheck.Test.make ~name:"fold_range hash = hash of read_bytes copy"
    ~count:300
    QCheck.(pair (int_bound (5 * 4096 - 1)) (int_bound (5 * 4096)))
    (fun (off, len) ->
      let a1, base, size = fold_rig () in
      let a2, _, _ = fold_rig () in
      let len = min len (size - off) in
      let copied =
        Exochi_guard.Checksum.of_bytes
          (Address_space.read_bytes a1 ~vaddr:(base + off) ~len)
      in
      let in_place =
        Address_space.fold_range a2 ~vaddr:(base + off) ~len
          ~init:Exochi_guard.Checksum.offset_basis
          Exochi_guard.Checksum.add_sub
      in
      copied = in_place
      && Address_space.minor_faults a1 = Address_space.minor_faults a2
      && region_bits a1 base size = region_bits a2 base size)

let test_aspace_write_sub () =
  let a, base, _ = fold_rig () in
  let src = Bytes.init 6000 (fun i -> Char.chr (255 - (i land 0xff))) in
  Address_space.write_sub a ~vaddr:(base + 4000) src ~off:1000 ~len:4500;
  Alcotest.(check string) "slice written across a page boundary"
    (Bytes.sub_string src 1000 4500)
    (Bytes.to_string
       (Address_space.read_bytes a ~vaddr:(base + 4000) ~len:4500));
  Alcotest.check_raises "slice out of bounds"
    (Invalid_argument "Address_space.write_sub") (fun () ->
      Address_space.write_sub a ~vaddr:base src ~off:5000 ~len:1001)

let () =
  Alcotest.run "memory"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "rw" `Quick test_phys_rw;
          Alcotest.test_case "unallocated zero" `Quick test_phys_unallocated_reads_zero;
          Alcotest.test_case "exhaustion" `Quick test_phys_alloc_exhaustion;
          Alcotest.test_case "free/reuse" `Quick test_phys_free_reuse;
          Alcotest.test_case "straddle rejected" `Quick test_phys_straddle_rejected;
          Alcotest.test_case "blit roundtrip" `Quick test_phys_blit_roundtrip;
        ] );
      ( "pte",
        [
          QCheck_alcotest.to_alcotest prop_ia32_pte_roundtrip;
          QCheck_alcotest.to_alcotest prop_x3k_pte_roundtrip;
          Alcotest.test_case "transcode semantics" `Quick test_transcode_semantics;
          Alcotest.test_case "cache mapping" `Quick test_transcode_cache_mapping;
          Alcotest.test_case "absent" `Quick test_transcode_absent;
          QCheck_alcotest.to_alcotest prop_transcode_back;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "map/walk" `Quick test_pt_map_walk;
          Alcotest.test_case "unmap" `Quick test_pt_unmap;
          Alcotest.test_case "translate sets A/D" `Quick test_pt_translate_sets_bits;
          Alcotest.test_case "walk reads counted" `Quick test_pt_walk_reads_counted;
          Alcotest.test_case "tables in phys mem" `Quick test_pt_tables_live_in_phys_mem;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "invalidate/flush" `Quick test_tlb_invalidate_flush;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20071 |])
            prop_tlb_matches_lru_model;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "writeback on eviction" `Quick test_cache_writeback_on_eviction;
          Alcotest.test_case "flush all" `Quick test_cache_flush_all;
          Alcotest.test_case "flush range" `Quick test_cache_flush_range;
          Alcotest.test_case "snoop/probe" `Quick test_cache_snoop_and_probe;
          Alcotest.test_case "range spanning" `Quick test_cache_range_spanning;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20071 |])
            prop_cache_matches_model;
        ] );
      ( "bus",
        [
          Alcotest.test_case "serialises" `Quick test_bus_serialises;
          Alcotest.test_case "latency optional" `Quick test_bus_latency_optional;
        ] );
      ( "surface",
        [
          Alcotest.test_case "linear addressing" `Quick test_surface_linear_addr;
          Alcotest.test_case "bounds" `Quick test_surface_bounds_checked;
          QCheck_alcotest.to_alcotest (prop_tiled_bijective Surface.Tiled_x "tiledX sane");
          QCheck_alcotest.to_alcotest (prop_tiled_bijective Surface.Tiled_y "tiledY sane");
          Alcotest.test_case "tiled injective" `Quick test_surface_tiled_distinct_addresses;
          Alcotest.test_case "contains" `Quick test_surface_contains;
        ] );
      ( "address_space",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_aspace_rw_roundtrip;
          Alcotest.test_case "bytes straddle" `Quick test_aspace_bytes_straddle_pages;
          Alcotest.test_case "segfault" `Quick test_aspace_segfault;
          Alcotest.test_case "unaligned u32" `Quick test_aspace_unaligned_u32;
          Alcotest.test_case "write_sub" `Quick test_aspace_write_sub;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20071 |])
            prop_fold_range_matches_read_bytes;
        ] );
    ]
