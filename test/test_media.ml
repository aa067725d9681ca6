open Exochi_media
open Exochi_memory
module Prng = Exochi_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_init_get_set () =
  let p = Image.init ~width:8 ~height:4 (fun ~x ~y -> (10 * y) + x) in
  check_int "get" 23 (Image.get p ~x:3 ~y:2);
  Image.set p ~x:3 ~y:2 99;
  check_int "set" 99 (Image.get p ~x:3 ~y:2)

let test_bounds () =
  let p = Image.create ~width:4 ~height:4 in
  check_bool "oob raises" true
    (try
       ignore (Image.get p ~x:4 ~y:0);
       false
     with Invalid_argument _ -> true)

let test_clamped () =
  let p = Image.init ~width:4 ~height:4 (fun ~x ~y -> (10 * y) + x) in
  check_int "clamp left" 0 (Image.get_clamped p ~x:(-5) ~y:0);
  check_int "clamp corner" 33 (Image.get_clamped p ~x:99 ~y:99)

let test_pad_replicates () =
  let p = Image.init ~width:3 ~height:3 (fun ~x ~y -> (10 * y) + x) in
  let q = Image.pad p ~margin:2 in
  check_int "dims" 7 q.Image.width;
  check_int "corner replicated" 0 (Image.get q ~x:0 ~y:0);
  check_int "centre preserved" 11 (Image.get q ~x:3 ~y:3);
  check_int "bottom-right replicated" 22 (Image.get q ~x:6 ~y:6)

let test_crop () =
  let p = Image.init ~width:8 ~height:8 (fun ~x ~y -> (10 * y) + x) in
  let c = Image.crop p ~x:2 ~y:3 ~width:3 ~height:2 in
  check_int "crop origin" 32 (Image.get c ~x:0 ~y:0);
  check_int "crop extent" 44 (Image.get c ~x:2 ~y:1)

let test_synthetic_deterministic () =
  let a = Image.synthetic (Prng.create 5L) ~width:32 ~height:32 Image.Natural in
  let b = Image.synthetic (Prng.create 5L) ~width:32 ~height:32 Image.Natural in
  check_bool "same seed same image" true (Image.equal a b);
  let c = Image.synthetic (Prng.create 6L) ~width:32 ~height:32 Image.Natural in
  check_bool "different seed differs" false (Image.equal a c)

let test_synthetic_in_byte_range () =
  List.iter
    (fun content ->
      let p = Image.synthetic (Prng.create 9L) ~width:40 ~height:20 content in
      Array.iter
        (fun v -> check_bool "0..255" true (v >= 0 && v <= 255))
        p.Image.data)
    [ Image.Gradient; Image.Noise; Image.Natural; Image.Checker 4 ]

let test_video_pans () =
  let v = Image.synthetic_video (Prng.create 1L) ~width:16 ~height:8 ~frames:3 Image.Natural in
  check_int "stacked height" 24 v.Image.height;
  (* frame 1 shifted two px right of frame 0 *)
  check_int "pan" (Image.get v ~x:2 ~y:1) (Image.get v ~x:0 ~y:(8 + 0))

let test_psnr () =
  let a = Image.init ~width:8 ~height:8 (fun ~x:_ ~y:_ -> 100) in
  let b = Image.init ~width:8 ~height:8 (fun ~x:_ ~y:_ -> 100) in
  check_bool "identical is infinite" true (Image.psnr a b = infinity);
  Image.set b ~x:0 ~y:0 101;
  check_bool "near-identical is high" true (Image.psnr a b > 40.0);
  check_int "max abs diff" 1 (Image.max_abs_diff a b)

let surface_roundtrip tiling bpp =
  let mem = Phys_mem.create ~frames:1024 in
  let aspace = Address_space.create mem in
  let p = Image.synthetic (Prng.create 3L) ~width:100 ~height:20 Image.Noise in
  let s =
    Surface.make ~id:1 ~name:"s"
      ~base:(Address_space.alloc aspace ~name:"s" ~bytes:(1 lsl 16) ~align:4096)
      ~width:100 ~height:20 ~bpp ~tiling ~mode:Surface.In_out
  in
  Image.store aspace p ~surface:s;
  let q = Image.load aspace ~surface:s in
  Alcotest.(check bool) "roundtrip" true (Image.equal p q)

let test_surface_roundtrips () =
  surface_roundtrip Surface.Linear 1;
  surface_roundtrip Surface.Linear 2;
  surface_roundtrip Surface.Linear 4;
  surface_roundtrip Surface.Tiled_x 1;
  surface_roundtrip Surface.Tiled_y 1

let prop_store_load_linear =
  QCheck.Test.make ~name:"store/load roundtrip random sizes" ~count:40
    QCheck.(pair (int_range 1 64) (int_range 1 32))
    (fun (w, h) ->
      let mem = Phys_mem.create ~frames:512 in
      let aspace = Address_space.create mem in
      let p = Image.synthetic (Prng.create 7L) ~width:w ~height:h Image.Noise in
      let s =
        Surface.make ~id:1 ~name:"s"
          ~base:(Address_space.alloc aspace ~name:"s" ~bytes:(1 lsl 14) ~align:64)
          ~width:w ~height:h ~bpp:1 ~tiling:Surface.Linear ~mode:Surface.In_out
      in
      Image.store aspace p ~surface:s;
      Image.equal p (Image.load aspace ~surface:s))

(* A linear surface moves a row at a time; that must leave memory, the
   frames the OS hands out and every page-table entry (accessed/dirty
   bits included) exactly as moving it sample by sample does. The
   surface is not touched beforehand, so the transfers fault its pages
   in, and each 6000-byte row of 16-bit samples crosses a page. *)
let test_rows_match_samples () =
  let width = 3000 and height = 5 and bpp = 2 in
  let p =
    Image.init ~width ~height (fun ~x ~y -> (((x * 37) + (y * 1001)) land 0xffff) - 0x8000)
  in
  let fresh () =
    let aspace = Address_space.create (Phys_mem.create ~frames:256) in
    let s =
      Surface.make ~id:1 ~name:"s"
        ~base:(Address_space.alloc aspace ~name:"s" ~bytes:(1 lsl 16) ~align:64)
        ~width ~height ~bpp ~tiling:Surface.Linear ~mode:Surface.In_out
    in
    (aspace, s)
  in
  let ptes aspace =
    let pt = Address_space.page_table aspace in
    List.map
      (fun vpage ->
        match Page_table.walk pt ~vpage with
        | Page_table.Mapped e -> (vpage, e)
        | Page_table.No_table | Page_table.Not_present -> (vpage, 0l))
      (Page_table.mapped_pages pt)
  in
  let rows, s = fresh () and samples, s' = fresh () in
  Image.store rows p ~surface:s;
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      Address_space.write_u16 samples
        (Surface.element_addr s' ~x ~y)
        (Image.get p ~x ~y land 0xffff)
    done
  done;
  check_bool "entries after store" true (ptes rows = ptes samples);
  check_int "faults after store" (Address_space.minor_faults samples)
    (Address_space.minor_faults rows);
  let q = Image.load rows ~surface:s in
  let q' =
    Image.init ~width ~height (fun ~x ~y ->
        Exochi_util.Bits.sign_extend
          (Address_space.read_u16 samples (Surface.element_addr s' ~x ~y))
          ~bits:16)
  in
  check_bool "loaded values" true (Image.equal q q' && Image.equal q p);
  check_bool "entries after load" true (ptes rows = ptes samples);
  (* a load of pages never written faults them in, accessed but clean *)
  let rows, s = fresh () and samples, s' = fresh () in
  ignore (Image.load rows ~surface:s);
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      ignore (Address_space.read_u16 samples (Surface.element_addr s' ~x ~y))
    done
  done;
  check_bool "entries after a first load" true (ptes rows = ptes samples);
  check_int "faults after a first load" (Address_space.minor_faults samples)
    (Address_space.minor_faults rows)

let () =
  Alcotest.run "media"
    [
      ( "image",
        [
          Alcotest.test_case "init/get/set" `Quick test_init_get_set;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "clamped" `Quick test_clamped;
          Alcotest.test_case "pad" `Quick test_pad_replicates;
          Alcotest.test_case "crop" `Quick test_crop;
          Alcotest.test_case "synthetic deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "synthetic range" `Quick test_synthetic_in_byte_range;
          Alcotest.test_case "video pans" `Quick test_video_pans;
          Alcotest.test_case "psnr" `Quick test_psnr;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "roundtrips" `Quick test_surface_roundtrips;
          QCheck_alcotest.to_alcotest prop_store_load_linear;
          Alcotest.test_case "rows match samples" `Quick test_rows_match_samples;
        ] );
    ]
