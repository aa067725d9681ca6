open Exochi_memory
open Exochi_isa
module Gpu = Exochi_accel.Gpu
module Lane = Exochi_accel.Lane

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A self-contained GPU rig with an identity ATR (no CPU in the loop) and a
   recording CEH. *)
type rig = {
  aspace : Address_space.t;
  gpu : Gpu.t;
  atr_count : int ref;
  ceh_count : int ref;
}

let make_rig ?config () =
  let mem = Phys_mem.create ~frames:4096 in
  let aspace = Address_space.create mem in
  let bus = Bus.create ~gbps:8.0 ~latency_ps:90_000 in
  let atr_count = ref 0 and ceh_count = ref 0 in
  let hooks =
    {
      Gpu.atr =
        (fun ~vpage ~now_ps ->
          incr atr_count;
          ignore
            (try Address_space.fault_in aspace ~vaddr:(vpage lsl 12)
             with Address_space.Segfault _ -> `Already);
          match Page_table.walk (Address_space.page_table aspace) ~vpage with
          | Page_table.Mapped pte ->
            (Some (Pte.transcode pte ~tiling:Pte.X3k.Linear), now_ps + 200_000)
          | _ -> (None, now_ps));
      ceh =
        (fun req ~now_ps ->
          incr ceh_count;
          let open X3k_ast in
          let lanes = Array.length req.Gpu.lane_a in
          let results =
            Array.init lanes (fun j ->
                match req.Gpu.fault_op with
                | Fdiv -> Lane.fdiv_ieee req.Gpu.lane_a.(j) req.Gpu.lane_b.(j)
                | Fsqrt -> Lane.fsqrt_ieee req.Gpu.lane_a.(j)
                | _ -> 0)
          in
          (results, now_ps + 500_000));
      ceh_spurious = (fun ~now_ps -> now_ps + 500_000);
      mem_delay = (fun ~paddr:_ ~bytes:_ ~write:_ ~now_ps:_ -> 0);
      on_shred_done = (fun _ ~now_ps:_ -> ());
    }
  in
  let gpu = Gpu.create ?config ~aspace ~bus ~hooks () in
  { aspace; gpu; atr_count; ceh_count }

let alloc_surface rig name ~width ~height ~bpp =
  let pitch = Surface.required_pitch ~width ~bpp ~tiling:Surface.Linear in
  let base =
    Address_space.alloc rig.aspace ~name ~bytes:(pitch * height) ~align:64
  in
  Surface.make ~id:1 ~name ~base ~width ~height ~bpp ~tiling:Surface.Linear
    ~mode:Surface.In_out

let run_one rig src ~surfaces ~params =
  let prog = X3k_asm.assemble_exn ~name:"t" src in
  Gpu.bind rig.gpu ~prog ~surfaces;
  Gpu.enqueue rig.gpu [ { Gpu.shred_id = 0; entry = 0; params } ];
  ignore (Gpu.run_to_quiescence rig.gpu)

let rd32 rig s ~x ~y =
  Int32.to_int
    (Address_space.read_u32 rig.aspace (Surface.element_addr s ~x ~y))

let wr32 rig s ~x ~y v =
  Address_space.write_u32 rig.aspace (Surface.element_addr s ~x ~y) (Int32.of_int v)

(* ---- basic execution ---- *)

let test_vector_add_fig6 () =
  let rig = make_rig () in
  let a = alloc_surface rig "A" ~width:64 ~height:1 ~bpp:4 in
  let b = alloc_surface rig "B" ~width:64 ~height:1 ~bpp:4 in
  let c = alloc_surface rig "C" ~width:64 ~height:1 ~bpp:4 in
  for i = 0 to 63 do
    wr32 rig a ~x:i ~y:0 i;
    wr32 rig b ~x:i ~y:0 (1000 * i)
  done;
  let prog =
    X3k_asm.assemble_exn ~name:"vadd"
      {|
  shl.1.dw   vr1 = %p0, 3
  ld.8.dw    [vr2..vr9] = (A, vr1, 0)
  ld.8.dw    [vr10..vr17] = (B, vr1, 0)
  add.8.dw   [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw    (C, vr1, 0) = [vr18..vr25]
  end
|}
  in
  Gpu.bind rig.gpu ~prog ~surfaces:[| a; b; c |];
  Gpu.enqueue rig.gpu
    (List.init 8 (fun i -> { Gpu.shred_id = i; entry = 0; params = [| i |] }));
  ignore (Gpu.run_to_quiescence rig.gpu);
  for i = 0 to 63 do
    check_int (Printf.sprintf "c[%d]" i) (1001 * i) (rd32 rig c ~x:i ~y:0)
  done;
  check_int "all shreds completed" 8 (Gpu.shreds_completed rig.gpu)

let test_special_registers () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:16 ~height:4 ~bpp:4 in
  let src =
    {|
  mov.1.dw vr1 = %sid
  st.1.dw (O, vr1, 0) = %sid
  add.1.dw vr2 = vr1, 4
  st.1.dw (O, vr2, 0) = %nshred
  bcast.16.dw vr3 = 0
  add.16.dw vr3 = vr3, %lane
  add.1.dw vr4 = vr1, 8
  shl.1.dw vr4 = vr4, 0
  end
|}
  in
  let prog = X3k_asm.assemble_exn ~name:"t" src in
  Gpu.bind rig.gpu ~prog ~surfaces:[| out |];
  Gpu.enqueue rig.gpu
    (List.init 4 (fun i -> { Gpu.shred_id = i; entry = 0; params = [||] }));
  ignore (Gpu.run_to_quiescence rig.gpu);
  for i = 0 to 3 do
    check_int "sid" i (rd32 rig out ~x:i ~y:0);
    check_int "nshred" 4 (rd32 rig out ~x:(i + 4) ~y:0)
  done

let test_branches_and_loops () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  run_one rig
    {|
  mov.1.dw vr0 = 0
  mov.1.dw vr1 = 0
L:
  add.1.dw vr0 = vr0, vr1
  add.1.dw vr1 = vr1, 1
  cmp.lt.1.dw f0 = vr1, 10
  br.any f0, L
  st.1.dw (O, vr2, 0) = vr0
  end
|}
    ~surfaces:[| out |] ~params:[||];
  check_int "sum 0..9" 45 (rd32 rig out ~x:0 ~y:0)

let test_predication_masks_lanes () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:8 ~height:1 ~bpp:4 in
  run_one rig
    {|
  bcast.8.dw vr0 = 0
  add.8.dw vr0 = vr0, %lane
  cmp.lt.8.dw f0 = vr0, 4
  bcast.8.dw vr1 = 100
  (f0) mov.8.dw vr1 = 200
  mov.1.dw vr3 = 0
  st.8.dw (O, vr3, 0) = vr1
  end
|}
    ~surfaces:[| out |] ~params:[||];
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "lane %d" i)
      (if i < 4 then 200 else 100)
      (rd32 rig out ~x:i ~y:0)
  done

let test_gather_scatter () =
  let rig = make_rig () in
  let src = alloc_surface rig "S" ~width:16 ~height:1 ~bpp:4 in
  let out = alloc_surface rig "O" ~width:16 ~height:1 ~bpp:4 in
  for i = 0 to 15 do
    wr32 rig src ~x:i ~y:0 (100 + i)
  done;
  (* reverse the array with gather (indices 15-lane) then scatter back *)
  run_one rig
    {|
  bcast.16.dw vr0 = 15
  sub.16.dw vr0 = vr0, %lane
  gather.16.dw vr1 = (S, vr0, 0)
  bcast.16.dw vr2 = 0
  add.16.dw vr2 = vr2, %lane
  scatter.16.dw (O, vr2, 0) = vr1
  end
|}
    ~surfaces:[| src; out |] ~params:[||];
  for i = 0 to 15 do
    check_int (Printf.sprintf "reversed %d" i) (100 + 15 - i)
      (rd32 rig out ~x:i ~y:0)
  done

let test_sampler_bilinear () =
  let rig = make_rig () in
  let tex = alloc_surface rig "T" ~width:4 ~height:4 ~bpp:1 in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  (* texel (0,0)=0, (1,0)=100 -> sample halfway = 50 *)
  Address_space.write_u8 rig.aspace (Surface.element_addr tex ~x:0 ~y:0) 0;
  Address_space.write_u8 rig.aspace (Surface.element_addr tex ~x:1 ~y:0) 100;
  run_one rig
    {|
  mov.1.dw vr0 = 32768
  mov.1.dw vr1 = 0
  sample.1.b vr2 = (T, vr0, vr1)
  mov.1.dw vr3 = 0
  st.1.dw (O, vr3, 0) = vr2
  end
|}
    ~surfaces:[| tex; out |] ~params:[||];
  check_int "bilinear midpoint" 50 (rd32 rig out ~x:0 ~y:0)

(* The sampler at a surface's edges. The 100x50 texture's second page is
   never written, so texels there read 0 while it is unmapped (the first
   sample's lane 0 footprint stays on page 0) and after the second
   sample's lane 0 footprint makes the ATR map it. Coordinates run off
   every edge and straddle the page boundary. Values are checked against
   a bilinear reference; time, counters and the texture pages' entries
   are pinned to the values of the reference implementation. *)
let test_sampler_edges () =
  let rig = make_rig () in
  let cu = alloc_surface rig "CU" ~width:32 ~height:1 ~bpp:4 in
  let cv = alloc_surface rig "CV" ~width:32 ~height:1 ~bpp:4 in
  let out = alloc_surface rig "O" ~width:32 ~height:1 ~bpp:4 in
  let w = 100 and h = 50 in
  let pitch = Surface.required_pitch ~width:w ~bpp:1 ~tiling:Surface.Linear in
  let base =
    Address_space.alloc rig.aspace ~name:"T" ~bytes:(pitch * h) ~align:4096
  in
  let tex =
    Surface.make ~id:2 ~name:"T" ~base ~width:w ~height:h ~bpp:1
      ~tiling:Surface.Linear ~mode:Surface.In_out
  in
  let page_rows = Phys_mem.page_size / pitch in
  let texel x y = if y < page_rows then ((x * 7) + (y * 13)) land 0xff else 0 in
  for y = 0 to page_rows - 1 do
    for x = 0 to w - 1 do
      Address_space.write_u8 rig.aspace (Surface.element_addr tex ~x ~y)
        (texel x y)
    done
  done;
  let q f = int_of_float (f *. 65536.0) in
  let coords =
    [
      (0.0, 0.0); (-1.5, 0.0); (0.0, -2.25); (-3.0, -3.0); (98.5, 0.0);
      (99.75, 10.5); (150.0, 5.0); (50.5, float_of_int page_rows -. 0.5);
      (10.25, float_of_int page_rows -. 0.25); (0.5, 0.5); (99.0, 31.0);
      (99.5, 31.5); (-0.25, 30.5); (1000.0, 1000.0); (-1000.0, 5.0);
      (3.125, 7.875);
      (200.5, 80.25); (99.5, 49.5); (0.0, 49.0); (0.5, 48.5); (50.0, 31.5);
      (-5.0, 60.0); (99.0, 0.0); (98.75, 49.75); (0.0, 0.0); (1.5, 1.5);
      (99.5, -0.5); (-0.5, 49.5); (64.0, 16.0); (33.3, 32.0); (7.0, 45.5);
      (0.99, 0.99);
    ]
  in
  List.iteri
    (fun i (u, v) ->
      wr32 rig cu ~x:i ~y:0 (q u);
      wr32 rig cv ~x:i ~y:0 (q v))
    coords;
  run_one rig
    {|
  mov.1.dw vr9 = 0
  ld.16.dw vr0 = (CU, vr9, 0)
  ld.16.dw vr1 = (CV, vr9, 0)
  sample.16.b vr2 = (T, vr0, vr1)
  st.16.dw (O, vr9, 0) = vr2
  ld.16.dw vr3 = (CU, vr9, 16)
  ld.16.dw vr4 = (CV, vr9, 16)
  sample.16.b vr5 = (T, vr3, vr4)
  st.16.dw (O, vr9, 16) = vr5
  end
|}
    ~surfaces:[| cu; cv; tex; out |] ~params:[||];
  let clampi lo hi x = if x < lo then lo else if x > hi then hi else x in
  let reference u v =
    let xi = u asr 16 and yi = v asr 16 in
    let fx = (u asr 8) land 0xff and fy = (v asr 8) land 0xff in
    let t x y = texel (clampi 0 (w - 1) x) (clampi 0 (h - 1) y) in
    let top = (t xi yi lsl 8) + ((t (xi + 1) yi - t xi yi) * fx) in
    let bot =
      (t xi (yi + 1) lsl 8) + ((t (xi + 1) (yi + 1) - t xi (yi + 1)) * fx)
    in
    ((top lsl 8) + ((bot - top) * fy) + 32768) asr 16
  in
  List.iteri
    (fun i (u, v) ->
      check_int
        (Printf.sprintf "sample %d at (%g, %g)" i u v)
        (reference (q u) (q v))
        (rd32 rig out ~x:i ~y:0))
    coords;
  let pt = Address_space.page_table rig.aspace in
  let pte vpage =
    match Page_table.walk pt ~vpage with
    | Page_table.Mapped e -> Int32.to_int e
    | _ -> -1
  in
  let vpage0 = base lsr Phys_mem.page_shift in
  Alcotest.(check (list int))
    "done time, busy, sampler requests, cache and TLB counters, ATR proxies"
    [ 1386822; 33; 2; 15; 22; 113; 3; 3 ]
    [
      Gpu.last_shred_done rig.gpu;
      Gpu.busy_cycles rig.gpu;
      Gpu.sampler_requests rig.gpu;
      Cache.hits (Gpu.cache rig.gpu);
      Cache.misses (Gpu.cache rig.gpu);
      Tlb.hits (Gpu.tlb rig.gpu);
      Tlb.misses (Gpu.tlb rig.gpu);
      !(rig.atr_count);
    ];
  Alcotest.(check (list int))
    "texture page entries (frame, P/RW/US/A/D)" [ 0x1067; 0x4027 ]
    [ pte vpage0; pte (vpage0 + 1) ]

(* ---- CEH ---- *)

let test_ceh_fdiv_by_zero () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  run_one rig
    {|
  mov.4.f vr0 = 8.0
  mov.4.f vr1 = 0.0
  fdiv.4.f vr2 = vr0, vr1
  mov.1.dw vr3 = 0
  st.4.dw (O, vr3, 0) = vr2
  end
|}
    ~surfaces:[| out |] ~params:[||];
  check_int "one CEH proxy" 1 !(rig.ceh_count);
  let bits = rd32 rig out ~x:0 ~y:0 in
  check_bool "IEEE +inf" true
    (Int32.float_of_bits (Int32.of_int bits) = infinity)

let test_ceh_not_triggered_when_safe () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  run_one rig
    {|
  mov.4.f vr0 = 8.0
  mov.4.f vr1 = 2.0
  fdiv.4.f vr2 = vr0, vr1
  cvtfi.4.f vr2 = vr2
  mov.1.dw vr3 = 0
  st.4.dw (O, vr3, 0) = vr2
  end
|}
    ~surfaces:[| out |] ~params:[||];
  check_int "no CEH" 0 !(rig.ceh_count);
  check_int "8/2" 4 (rd32 rig out ~x:0 ~y:0)

let test_ceh_fsqrt_negative () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  run_one rig
    {|
  mov.4.f vr0 = -4.0
  fsqrt.4.f vr1 = vr0
  mov.1.dw vr3 = 0
  st.4.dw (O, vr3, 0) = vr1
  end
|}
    ~surfaces:[| out |] ~params:[||];
  check_int "one CEH proxy" 1 !(rig.ceh_count);
  let bits = rd32 rig out ~x:0 ~y:0 in
  check_bool "NaN" true (Float.is_nan (Int32.float_of_bits (Int32.of_int bits)))

(* ---- ATR ---- *)

let test_atr_lazy_translation () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:2048 ~height:4 ~bpp:4 in
  (* touch 4 rows x 2048 dwords = 32 KiB = 8 pages *)
  run_one rig
    {|
  mov.1.dw vr0 = 0
  mov.1.dw vr1 = 0
L:
  st.1.dw (O, vr0, 0) = vr1
  add.1.dw vr0 = vr0, 1024
  add.1.dw vr1 = vr1, 1
  cmp.lt.1.dw f0 = vr1, 8
  br.any f0, L
  end
|}
    ~surfaces:[| out |] ~params:[||];
  check_bool "several ATR proxies" true (!(rig.atr_count) >= 8)

let test_atr_tlb_reuse () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:64 ~height:1 ~bpp:4 in
  run_one rig
    {|
  mov.1.dw vr0 = 0
  mov.1.dw vr1 = 0
L:
  st.1.dw (O, vr1, 0) = vr1
  add.1.dw vr1 = vr1, 1
  cmp.lt.1.dw f0 = vr1, 64
  br.any f0, L
  end
|}
    ~surfaces:[| out |] ~params:[||];
  check_int "single page -> single ATR" 1 !(rig.atr_count)

let test_gpu_segfault () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  (* index far outside any region *)
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      "  mov.1.dw vr0 = 100000000\n  st.1.dw (O, vr0, 0) = vr0\n  end\n"
  in
  Gpu.bind rig.gpu ~prog ~surfaces:[| out |];
  Gpu.enqueue rig.gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  check_bool "segfault raised" true
    (try
       ignore (Gpu.run_to_quiescence rig.gpu);
       false
     with
    | Gpu.Gpu_segfault _ -> true
    | Invalid_argument _ -> true)

(* ---- synchronisation ---- *)

let test_semaphores_mutual_exclusion () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  (* 16 shreds increment a shared counter inside a critical section *)
  let src =
    {|
  sem.acq 0
  mov.1.dw vr1 = 0
  ld.1.dw vr0 = (O, vr1, 0)
  add.1.dw vr0 = vr0, 1
  st.1.dw (O, vr1, 0) = vr0
  fence
  sem.rel 0
  end
|}
  in
  let prog = X3k_asm.assemble_exn ~name:"t" src in
  Gpu.bind rig.gpu ~prog ~surfaces:[| out |];
  Gpu.enqueue rig.gpu
    (List.init 16 (fun i -> { Gpu.shred_id = i; entry = 0; params = [||] }));
  ignore (Gpu.run_to_quiescence rig.gpu);
  check_int "atomic increments" 16 (rd32 rig out ~x:0 ~y:0)

let test_sendreg_to_resident () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:4 ~height:1 ~bpp:4 in
  (* shred 1 spins until vr9 becomes nonzero (set by shred 0) *)
  let src =
    {|
  cmp.eq.1.dw f0 = %sid, 0
  br.any f0, PRODUCER
WAIT:
  cmp.eq.1.dw f1 = vr9, 0
  br.any f1, WAIT
  mov.1.dw vr1 = 0
  st.1.dw (O, vr1, 0) = vr9
  end
PRODUCER:
  mov.1.dw vr2 = 1
  mov.16.dw vr3 = 777
  sendreg @(vr2, 9) = vr3
  end
|}
  in
  let prog = X3k_asm.assemble_exn ~name:"t" src in
  Gpu.bind rig.gpu ~prog ~surfaces:[| out |];
  (* enqueue the consumer first so both are resident *)
  Gpu.enqueue rig.gpu
    [
      { Gpu.shred_id = 1; entry = 0; params = [||] };
      { Gpu.shred_id = 0; entry = 0; params = [||] };
    ];
  ignore (Gpu.run_to_quiescence rig.gpu);
  check_int "register delivered" 777 (rd32 rig out ~x:0 ~y:0)

let test_spawn_enqueues_child () =
  let rig = make_rig () in
  let out = alloc_surface rig "O" ~width:8 ~height:1 ~bpp:4 in
  let src =
    {|
  jmp PARENT
CHILD:
  mov.1.dw vr1 = 1
  st.1.dw (O, vr1, 0) = %p0
  end
PARENT:
  mov.8.dw vr2 = 0
  add.1.dw vr2 = vr2, 4242
  spawn CHILD, vr2
  mov.1.dw vr3 = 0
  st.1.dw (O, vr3, 0) = 1
  end
|}
  in
  let prog = X3k_asm.assemble_exn ~name:"t" src in
  Gpu.bind rig.gpu ~prog ~surfaces:[| out |];
  Gpu.enqueue rig.gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
  ignore (Gpu.run_to_quiescence rig.gpu);
  check_int "parent ran" 1 (rd32 rig out ~x:0 ~y:0);
  check_int "child received params" 4242 (rd32 rig out ~x:1 ~y:0);
  check_int "two shreds total" 2 (Gpu.shreds_completed rig.gpu)

(* ---- dtype / lane semantics ---- *)

let prop_lane_wrap_b =
  QCheck.Test.make ~name:"lane byte wrap" ~count:500 QCheck.int (fun v ->
      let w = Lane.wrap X3k_ast.B v in
      w >= 0 && w <= 255 && w = v land 0xff)

let prop_lane_wrap_w =
  QCheck.Test.make ~name:"lane word wrap is sign-extended 16-bit" ~count:500
    QCheck.int (fun v ->
      let w = Lane.wrap X3k_ast.W v in
      w >= -32768 && w <= 32767)

let prop_lane_avg_matches_formula =
  QCheck.Test.make ~name:"byte avg" ~count:500
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) -> Lane.avg X3k_ast.B a b = (a + b + 1) / 2)

let prop_lane_sat =
  QCheck.Test.make ~name:"saturate.b clamps" ~count:500 QCheck.int (fun v ->
      let s = Lane.saturate X3k_ast.B v in
      s = max 0 (min 255 v))

let prop_lane_float_roundtrip =
  QCheck.Test.make ~name:"float lane roundtrip" ~count:300
    QCheck.(float_range (-1e6) 1e6)
    (fun f ->
      let f32 = Int32.float_of_bits (Int32.bits_of_float f) in
      Lane.float_of_lane (Lane.lane_of_float f) = f32)

(* dtype-sensitive compare: bytes are unsigned *)
let test_byte_compare_unsigned () =
  check_bool "255 > 1 as bytes" true
    (Lane.compare_lanes X3k_ast.B X3k_ast.Gt 255 1);
  check_bool "-1 wraps to 255" true
    (Lane.compare_lanes X3k_ast.B X3k_ast.Gt (Lane.wrap X3k_ast.B (-1)) 1);
  check_bool "signed dw" true (Lane.compare_lanes X3k_ast.DW X3k_ast.Lt (-1) 1)

(* ---- differential: random ALU programs vs a pure lane evaluator ---- *)

type alu_instr = {
  g_op : X3k_ast.opcode;
  g_dt : X3k_ast.dtype;
  g_dst : int;
  g_s1 : int;
  g_s2 : [ `Reg of int | `Imm of int ];
}

let alu_gen =
  QCheck.Gen.(
    let reg = int_range 1 15 in
    map
      (fun (op, dt, d, s1, s2) -> { g_op = op; g_dt = dt; g_dst = d; g_s1 = s1; g_s2 = s2 })
      (tup5
         (oneofl
            X3k_ast.
              [ Add; Sub; Mul; Min; Max; Avg; And; Or; Xor; Shl; Shr; Sar ])
         (oneofl X3k_ast.[ B; W; DW ])
         reg reg
         (frequency
            [
              (3, map (fun r -> `Reg r) reg);
              (1, map (fun i -> `Imm i) (int_range (-1000) 1000));
            ])))

let alu_to_src prog =
  let b = Buffer.create 256 in
  (* seed registers vr1..vr15 with distinct lane patterns *)
  Buffer.add_string b "  bcast.8.dw vr0 = 0
  add.8.dw vr0 = vr0, %lane
";
  for r = 1 to 15 do
    Buffer.add_string b
      (Printf.sprintf "  mul.8.dw vr%d = vr0, %d
  add.8.dw vr%d = vr%d, %d
"
         r ((r * 37) + 11) r r (r * r * 5))
  done;
  List.iter
    (fun i ->
      let s2 =
        match i.g_s2 with `Reg r -> Printf.sprintf "vr%d" r | `Imm v -> string_of_int v
      in
      Buffer.add_string b
        (Printf.sprintf "  %s.8.%s vr%d = vr%d, %s
"
           (X3k_ast.opcode_name i.g_op)
           (X3k_ast.dtype_name i.g_dt) i.g_dst i.g_s1 s2))
    prog;
  (* dump vr1..vr15 to the output surface *)
  Buffer.add_string b "  mov.1.dw vr20 = 0
";
  for r = 1 to 15 do
    Buffer.add_string b
      (Printf.sprintf "  mov.1.dw vr20 = %d
  st.8.dw (O, vr20, 0) = vr%d
"
         ((r - 1) * 8) r)
  done;
  Buffer.add_string b "  end
";
  Buffer.contents b

let alu_reference prog =
  (* the same seeding and ops, straight over Lane arithmetic *)
  let regs = Array.init 16 (fun _ -> Array.make 8 0) in
  for l = 0 to 7 do
    regs.(0).(l) <- l;
    for r = 1 to 15 do
      regs.(r).(l) <-
        Lane.add X3k_ast.DW
          (Lane.mul X3k_ast.DW l ((r * 37) + 11))
          (r * r * 5)
    done
  done;
  List.iter
    (fun i ->
      let open X3k_ast in
      let f a b =
        match i.g_op with
        | Add -> Lane.add i.g_dt a b
        | Sub -> Lane.sub i.g_dt a b
        | Mul -> Lane.mul i.g_dt a b
        | Min -> Lane.min_ i.g_dt a b
        | Max -> Lane.max_ i.g_dt a b
        | Avg -> Lane.avg i.g_dt a b
        | And -> Lane.and_ a b
        | Or -> Lane.or_ a b
        | Xor -> Lane.xor_ a b
        | Shl -> Lane.shl i.g_dt a b
        | Shr -> Lane.shr i.g_dt a b
        | Sar -> Lane.sar i.g_dt a b
        | _ -> assert false
      in
      for l = 0 to 7 do
        let b =
          match i.g_s2 with
          | `Reg r -> regs.(r).(l)
          | `Imm v -> Lane.wrap32 v
        in
        regs.(i.g_dst).(l) <- f regs.(i.g_s1).(l) b
      done)
    prog;
  regs

let prop_gpu_matches_lane_reference =
  QCheck.Test.make ~name:"GPU ALU matches pure lane evaluator" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 25) alu_gen))
    (fun prog ->
      let rig = make_rig () in
      let out = alloc_surface rig "O" ~width:128 ~height:1 ~bpp:4 in
      let src = alu_to_src prog in
      let p = X3k_asm.assemble_exn ~name:"diff" src in
      Gpu.bind rig.gpu ~prog:p ~surfaces:[| out |];
      Gpu.enqueue rig.gpu [ { Gpu.shred_id = 0; entry = 0; params = [||] } ];
      ignore (Gpu.run_to_quiescence rig.gpu);
      let expect = alu_reference prog in
      let ok = ref true in
      for r = 1 to 15 do
        for l = 0 to 7 do
          if rd32 rig out ~x:(((r - 1) * 8) + l) ~y:0 <> expect.(r).(l) then
            ok := false
        done
      done;
      !ok)

(* ---- SMT ablation sanity ---- *)

let test_smt_off_still_correct () =
  let cfg = { Gpu.default_config with switch_on_stall = false } in
  let rig = make_rig ~config:cfg () in
  let out = alloc_surface rig "O" ~width:64 ~height:1 ~bpp:4 in
  let prog =
    X3k_asm.assemble_exn ~name:"t"
      "  mov.1.dw vr0 = %p0\n  st.1.dw (O, vr0, 0) = %sid\n  end\n"
  in
  Gpu.bind rig.gpu ~prog ~surfaces:[| out |];
  Gpu.enqueue rig.gpu
    (List.init 64 (fun i -> { Gpu.shred_id = i; entry = 0; params = [| i |] }));
  ignore (Gpu.run_to_quiescence rig.gpu);
  for i = 0 to 63 do
    check_int (Printf.sprintf "o[%d]" i) i (rd32 rig out ~x:i ~y:0)
  done

let () =
  Alcotest.run "accel"
    [
      ( "exec",
        [
          Alcotest.test_case "vector add (fig 6)" `Quick test_vector_add_fig6;
          Alcotest.test_case "special regs" `Quick test_special_registers;
          Alcotest.test_case "branches/loops" `Quick test_branches_and_loops;
          Alcotest.test_case "predication" `Quick test_predication_masks_lanes;
          Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
          Alcotest.test_case "sampler" `Quick test_sampler_bilinear;
          Alcotest.test_case "sampler edges" `Quick test_sampler_edges;
        ] );
      ( "ceh",
        [
          Alcotest.test_case "fdiv by zero" `Quick test_ceh_fdiv_by_zero;
          Alcotest.test_case "no fault path" `Quick test_ceh_not_triggered_when_safe;
          Alcotest.test_case "fsqrt negative" `Quick test_ceh_fsqrt_negative;
        ] );
      ( "atr",
        [
          Alcotest.test_case "lazy translation" `Quick test_atr_lazy_translation;
          Alcotest.test_case "tlb reuse" `Quick test_atr_tlb_reuse;
          Alcotest.test_case "segfault" `Quick test_gpu_segfault;
        ] );
      ( "sync",
        [
          Alcotest.test_case "semaphores" `Quick test_semaphores_mutual_exclusion;
          Alcotest.test_case "sendreg" `Quick test_sendreg_to_resident;
          Alcotest.test_case "spawn" `Quick test_spawn_enqueues_child;
        ] );
      ( "lanes",
        [
          QCheck_alcotest.to_alcotest prop_lane_wrap_b;
          QCheck_alcotest.to_alcotest prop_lane_wrap_w;
          QCheck_alcotest.to_alcotest prop_lane_avg_matches_formula;
          QCheck_alcotest.to_alcotest prop_lane_sat;
          QCheck_alcotest.to_alcotest prop_lane_float_roundtrip;
          Alcotest.test_case "byte unsigned cmp" `Quick test_byte_compare_unsigned;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_gpu_matches_lane_reference ] );
      ( "smt",
        [ Alcotest.test_case "smt off correct" `Quick test_smt_off_still_correct ] );
    ]
