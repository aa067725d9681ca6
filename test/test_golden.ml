(* Pins the simulated clock of the Fig. 7 experiment.

   Every Table 2 kernel runs once on the X3K exo-sequencers (All_gpu,
   -O0) and once on IA32 (All_cpu) at Small scale with three video
   frames, and every simulated number is compared with a table recorded
   from the reference implementation: all [Harness.result] fields, the
   CPU L1/L2 and GPU cache hit/miss/writeback counts, both TLBs'
   hit/miss counts, the bus traffic, the OS minor faults and a digest of
   every page-table entry (accessed/dirty bits included). Host-speed
   work on the interpreters or the memory path must leave all of it
   unchanged. *)

open Exochi_memory
open Exochi_kernels
module P = Exochi_core.Exo_platform
module Machine = Exochi_cpu.Machine
module Gpu = Exochi_accel.Gpu

let frames = 3

(* Every mapped page's IA32 entry, in ascending page order, hashed. *)
let pte_digest aspace =
  let pt = Address_space.page_table aspace in
  let b = Buffer.create 4096 in
  List.iter
    (fun vpage ->
      match Page_table.walk pt ~vpage with
      | Page_table.Mapped pte -> Printf.bprintf b "%x:%lx\n" vpage pte
      | Page_table.No_table | Page_table.Not_present ->
        Printf.bprintf b "%x:-\n" vpage)
    (Page_table.mapped_pages pt);
  Digest.to_hex (Digest.string (Buffer.contents b))

let measure (k : Kernel.t) split =
  let extra = ref [] and digest = ref "" in
  let inspect platform =
    let cpu = P.cpu platform and gpu = P.gpu platform in
    let aspace = P.aspace platform in
    let cache name c =
      [
        (name ^ "_hits", Cache.hits c);
        (name ^ "_misses", Cache.misses c);
        (name ^ "_writebacks", Cache.writebacks c);
      ]
    in
    extra :=
      cache "cpu_l1" (Machine.l1 cpu)
      @ cache "cpu_l2" (Machine.l2 cpu)
      @ cache "gpu_cache" (Gpu.cache gpu)
      @ [
          ("cpu_tlb_hits", Machine.tlb_hits cpu);
          ("cpu_tlb_misses", Machine.tlb_misses cpu);
          ("gpu_tlb_hits", Tlb.hits (Gpu.tlb gpu));
          ("gpu_tlb_misses", Tlb.misses (Gpu.tlb gpu));
          ("bus_bytes", Bus.total_bytes (P.bus platform));
          ("bus_requests", Bus.total_requests (P.bus platform));
          ("minor_faults", Address_space.minor_faults aspace);
          ( "frames_allocated",
            Phys_mem.frames_allocated (Address_space.phys_mem aspace) );
        ];
    digest := pte_digest aspace
  in
  let r =
    Harness.run ~frames ~split ~opt_level:Exochi_opt.Opt.O0 ~inspect k
      Kernel.Small
  in
  let fields =
    [
      ("time_ps", r.time_ps);
      ("correct", Bool.to_int r.correct);
      ("max_diff", r.max_diff);
      ("gpu_instrs", r.gpu_instrs);
      ("cpu_instrs", r.cpu_instrs);
      ("flush_bytes", r.flush_bytes);
      ("copy_bytes", r.copy_bytes);
      ("atr_proxies", r.atr_proxies);
      ("gtt_hits", r.gtt_hits);
      ("ceh_proxies", r.ceh_proxies);
      ("shreds", r.shreds);
      ("thread_switches", r.thread_switches);
      ("protocol_violations", r.protocol_violations);
      ("cpu_busy_ps", r.cpu_busy_ps);
      ("gpu_busy_ps", r.gpu_busy_ps);
      ("faults_injected", r.faults_injected);
      ("retries", r.retries);
      ("quarantined_seqs", r.quarantined_seqs);
      ("fallback_shreds", r.fallback_shreds);
      ("recovered_faults", r.recovered_faults);
      ("fatal_faults", r.fatal_faults);
    ]
    @ !extra
  in
  (fields, !digest)

let side_name = function
  | Harness.All_gpu -> "x3k"
  | Harness.All_cpu -> "ia32"
  | _ -> assert false

(* (kernel, side) -> (fields, page-table digest), recorded from the
   reference implementation. *)
let golden : ((string * string) * ((string * int) list * string)) list =
  [
    ( ("LinearFilter", "x3k"),
      ( [
          ("time_ps", 400527008); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 1177600); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 159);
          ("ceh_proxies", 0); ("shreds", 6400); ("thread_switches", 95530);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 2427180800); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 5302); ("cpu_l1_writebacks", 5255);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 5302);
          ("cpu_l2_writebacks", 4820); ("gpu_cache_hits", 402697);
          ("gpu_cache_misses", 10103); ("gpu_cache_writebacks", 3840);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 3073113); ("gpu_tlb_misses", 159);
          ("bus_bytes", 585152); ("bus_requests", 9143);
          ("minor_faults", 158); ("frames_allocated", 160)
        ],
        "ebb94a75a639939b338a9d374641302a" ) );
    ( ("LinearFilter", "ia32"),
      ( [
          ("time_ps", 1320343152); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 2899204); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 1320343152);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 1401096); ("cpu_l1_misses", 15406);
          ("cpu_l1_writebacks", 9871); ("cpu_l2_hits", 10383);
          ("cpu_l2_misses", 10104); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 1382241);
          ("cpu_tlb_misses", 159); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 614656);
          ("bus_requests", 4802); ("minor_faults", 158);
          ("frames_allocated", 160)
        ],
        "206abb051da632b7109cc6ab57ff82c0" ) );
    ( ("SepiaTone", "x3k"),
      ( [
          ("time_ps", 342567179); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 979200); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 450);
          ("ceh_proxies", 0); ("shreds", 4800); ("thread_switches", 360365);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 1906728000); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 14400); ("cpu_l1_writebacks", 14400);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 14400);
          ("cpu_l2_writebacks", 14400); ("gpu_cache_hits", 201600);
          ("gpu_cache_misses", 28800); ("gpu_cache_writebacks", 13372);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 1846350); ("gpu_tlb_misses", 450);
          ("bus_bytes", 1777408); ("bus_requests", 27772);
          ("minor_faults", 450); ("frames_allocated", 452)
        ],
        "8c9e72b9ffe36f72740df5e7603f1907" ) );
    ( ("SepiaTone", "ia32"),
      ( [
          ("time_ps", 3342933456); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 3566404); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 3342933456);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 3196797); ("cpu_l1_misses", 43203);
          ("cpu_l1_writebacks", 28483); ("cpu_l2_hits", 28995);
          ("cpu_l2_misses", 28803); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 3225149);
          ("cpu_tlb_misses", 451); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 1843584);
          ("bus_requests", 14403); ("minor_faults", 451);
          ("frames_allocated", 453)
        ],
        "58033f0d35578ad8ea27aaf9a2ab405b" ) );
    ( ("FGT", "x3k"),
      ( [
          ("time_ps", 419762776); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 1315584); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 384);
          ("ceh_proxies", 0); ("shreds", 96); ("thread_switches", 191441);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 2561059488); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 12288); ("cpu_l1_writebacks", 12288);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 12288);
          ("cpu_l2_writebacks", 12288); ("gpu_cache_hits", 172032);
          ("gpu_cache_misses", 24576); ("gpu_cache_writebacks", 11262);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 1575552); ("gpu_tlb_misses", 384);
          ("bus_bytes", 1507200); ("bus_requests", 23550);
          ("minor_faults", 384); ("frames_allocated", 386)
        ],
        "f91a515457eae42f4b8014ea2f499d75" ) );
    ( ("FGT", "ia32"),
      ( [
          ("time_ps", 2271651456); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 2428900); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 2271651456);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 3515134); ("cpu_l1_misses", 36866);
          ("cpu_l1_writebacks", 24320); ("cpu_l2_hits", 24832);
          ("cpu_l2_misses", 24578); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 3539327);
          ("cpu_tlb_misses", 385); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 1573120);
          ("bus_requests", 12290); ("minor_faults", 385);
          ("frames_allocated", 387)
        ],
        "c6ddb2ca4eef4d0094b28e7a07d68733" ) );
    ( ("Bicubic", "x3k"),
      ( [
          ("time_ps", 1792365832); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 3331530); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 340);
          ("ceh_proxies", 0); ("shreds", 270); ("thread_switches", 542636);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 13312379160); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 4392); ("cpu_l1_writebacks", 4392);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 4392);
          ("cpu_l2_writebacks", 4374); ("gpu_cache_hits", 10411039);
          ("gpu_cache_misses", 21761); ("gpu_cache_writebacks", 15868);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 11409900); ("gpu_tlb_misses", 340);
          ("bus_bytes", 1297472); ("bus_requests", 20273);
          ("minor_faults", 339); ("frames_allocated", 341)
        ],
        "4d19c574d38c0ed8b2908efc0232f902" ) );
    ( ("Bicubic", "ia32"),
      ( [
          ("time_ps", 20233973488); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 59467381); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 20233973488);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 17907694); ("cpu_l1_misses", 26048);
          ("cpu_l1_writebacks", 21284); ("cpu_l2_hits", 21778);
          ("cpu_l2_misses", 21674); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 17929009);
          ("cpu_tlb_misses", 341); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 2212096);
          ("bus_requests", 17282); ("minor_faults", 340);
          ("frames_allocated", 342)
        ],
        "29a4f674682cd103565497ed3352919d" ) );
    ( ("Kalman", "x3k"),
      ( [
          ("time_ps", 220239155); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 516096); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 192);
          ("ceh_proxies", 0); ("shreds", 4096); ("thread_switches", 75946);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 951685120); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 6144); ("cpu_l1_writebacks", 6144);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 6144);
          ("cpu_l2_writebacks", 6144); ("gpu_cache_hits", 86016);
          ("gpu_cache_misses", 12288); ("gpu_cache_writebacks", 5120);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 787776); ("gpu_tlb_misses", 192);
          ("bus_bytes", 720896); ("bus_requests", 11264);
          ("minor_faults", 192); ("frames_allocated", 194)
        ],
        "bc8058b31bbcf06f10b5ac1325b377af" ) );
    ( ("Kalman", "ia32"),
      ( [
          ("time_ps", 1256844096); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 1806344); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 1256844096);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 184326); ("cpu_l1_misses", 18433);
          ("cpu_l1_writebacks", 12032); ("cpu_l2_hits", 12544);
          ("cpu_l2_misses", 12289); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 196422);
          ("cpu_tlb_misses", 193); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 786560);
          ("bus_requests", 6145); ("minor_faults", 193);
          ("frames_allocated", 195)
        ],
        "5293401619d170cb564dd570c6f044a3" ) );
    ( ("FMD", "x3k"),
      ( [
          ("time_ps", 168970491); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 179216); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 219);
          ("ceh_proxies", 0); ("shreds", 22); ("thread_switches", 29401);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 560017406); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 17280); ("cpu_l1_writebacks", 17280);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 17280);
          ("cpu_l2_writebacks", 11520); ("gpu_cache_hits", 31702);
          ("gpu_cache_misses", 11542); ("gpu_cache_writebacks", 8);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 694514); ("gpu_tlb_misses", 219);
          ("bus_bytes", 737792); ("bus_requests", 11528);
          ("minor_faults", 271); ("frames_allocated", 273)
        ],
        "204e0d4dde4971a6cf6f93e0d24f82da" ) );
    ( ("FMD", "ia32"),
      ( [
          ("time_ps", 290521328); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 707787); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 290521328);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 163221); ("cpu_l1_misses", 28823);
          ("cpu_l1_writebacks", 17300); ("cpu_l2_hits", 12052);
          ("cpu_l2_misses", 17303); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 174582);
          ("cpu_tlb_misses", 182); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 2944); ("bus_requests", 23);
          ("minor_faults", 272); ("frames_allocated", 274)
        ],
        "6c2f00e1a9b37ec46acd42d3f3186a83" ) );
    ( ("AlphaBlend", "x3k"),
      ( [
          ("time_ps", 1076591650); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 321300); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 181);
          ("ceh_proxies", 0); ("shreds", 2700); ("thread_switches", 36711);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 1032061500); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 5792); ("cpu_l1_writebacks", 5792);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 5792);
          ("cpu_l2_writebacks", 5792); ("gpu_cache_hits", 393087);
          ("gpu_cache_misses", 11553); ("gpu_cache_writebacks", 4736);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 715500); ("gpu_tlb_misses", 181);
          ("bus_bytes", 673856); ("bus_requests", 10529);
          ("minor_faults", 181); ("frames_allocated", 183)
        ],
        "8ef65c61e39db2bfe40bc4d4feaa45aa" ) );
    ( ("AlphaBlend", "ia32"),
      ( [
          ("time_ps", 7108626624); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 19391916); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 7108626624);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 7748250); ("cpu_l1_misses", 17342);
          ("cpu_l1_writebacks", 11298); ("cpu_l2_hits", 11807);
          ("cpu_l2_misses", 11553); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 7759618);
          ("cpu_tlb_misses", 182); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 737408);
          ("bus_requests", 5761); ("minor_faults", 182);
          ("frames_allocated", 184)
        ],
        "9dfa77ab0913e361aa0f710647d65bb0" ) );
    ( ("BOB", "x3k"),
      ( [
          ("time_ps", 281686318); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 502470); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 540);
          ("ceh_proxies", 0); ("shreds", 270); ("thread_switches", 60414);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 1736291700); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 17280); ("cpu_l1_writebacks", 17032);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 17280);
          ("cpu_l2_writebacks", 8676); ("gpu_cache_hits", 135100);
          ("gpu_cache_misses", 26900); ("gpu_cache_writebacks", 15991);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 2600100); ("gpu_tlb_misses", 540);
          ("bus_bytes", 1638464); ("bus_requests", 25601);
          ("minor_faults", 540); ("frames_allocated", 542)
        ],
        "2ba66812bbed6d8b125d226f43a6c96f" ) );
    ( ("BOB", "ia32"),
      ( [
          ("time_ps", 239216224); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 560803); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 239216224);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 88524); ("cpu_l1_misses", 25956);
          ("cpu_l1_writebacks", 17280); ("cpu_l2_hits", 9188);
          ("cpu_l2_misses", 17280); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 161460);
          ("cpu_tlb_misses", 540); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 2073600);
          ("bus_requests", 64800); ("minor_faults", 541);
          ("frames_allocated", 543)
        ],
        "4d7f63c547285453c1a3b524a9b90188" ) );
    ( ("ADVDI", "x3k"),
      ( [
          ("time_ps", 495998386); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 826470); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 810);
          ("ceh_proxies", 0); ("shreds", 270); ("thread_switches", 117607);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 2999049300); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 34560); ("cpu_l1_writebacks", 34560);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 34560);
          ("cpu_l2_writebacks", 25956); ("gpu_cache_hits", 213731);
          ("gpu_cache_misses", 45469); ("gpu_cache_writebacks", 16625);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 4159350); ("gpu_tlb_misses", 810);
          ("bus_bytes", 2866304); ("bus_requests", 44786);
          ("minor_faults", 810); ("frames_allocated", 812)
        ],
        "8d023263798886c27a3c2980c8c862d9" ) );
    ( ("ADVDI", "ia32"),
      ( [
          ("time_ps", 1975668768); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 3282403); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 1975668768);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 928676); ("cpu_l1_misses", 77884);
          ("cpu_l1_writebacks", 51631); ("cpu_l2_hits", 43626);
          ("cpu_l2_misses", 51841); ("cpu_l2_writebacks", 0);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 971189);
          ("cpu_tlb_misses", 811); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 2211968);
          ("bus_requests", 17281); ("minor_faults", 811);
          ("frames_allocated", 813)
        ],
        "ccaa5c72ca106799761e8f04ba4a0bb2" ) );
    ( ("ProcAmp", "x3k"),
      ( [
          ("time_ps", 1108573022); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 1647000); ("cpu_instrs", 0); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 1626);
          ("ceh_proxies", 0); ("shreds", 270); ("thread_switches", 261613);
          ("protocol_violations", 0); ("cpu_busy_ps", 0);
          ("gpu_busy_ps", 5867370810); ("faults_injected", 0);
          ("retries", 0); ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0); ("cpu_l1_hits", 0);
          ("cpu_l1_misses", 51840); ("cpu_l1_writebacks", 51840);
          ("cpu_l2_hits", 0); ("cpu_l2_misses", 51840);
          ("cpu_l2_writebacks", 51840); ("gpu_cache_hits", 283315);
          ("gpu_cache_misses", 105485); ("gpu_cache_writebacks", 51686);
          ("cpu_tlb_hits", 0); ("cpu_tlb_misses", 0);
          ("gpu_tlb_hits", 6245190); ("gpu_tlb_misses", 1626);
          ("bus_bytes", 6685440); ("bus_requests", 104460);
          ("minor_faults", 1620); ("frames_allocated", 1623)
        ],
        "78977219b43a8431efdda80f8470a0ac" ) );
    ( ("ProcAmp", "ia32"),
      ( [
          ("time_ps", 8480665424); ("correct", 1); ("max_diff", 0);
          ("gpu_instrs", 0); ("cpu_instrs", 6531574); ("flush_bytes", 0);
          ("copy_bytes", 0); ("atr_proxies", 0); ("gtt_hits", 0);
          ("ceh_proxies", 0); ("shreds", 0); ("thread_switches", 0);
          ("protocol_violations", 0); ("cpu_busy_ps", 8480665424);
          ("gpu_busy_ps", 0); ("faults_injected", 0); ("retries", 0);
          ("quarantined_seqs", 0); ("fallback_shreds", 0);
          ("recovered_faults", 0); ("fatal_faults", 0);
          ("cpu_l1_hits", 10774618); ("cpu_l1_misses", 163622);
          ("cpu_l1_writebacks", 107474); ("cpu_l2_hits", 87478);
          ("cpu_l2_misses", 132290); ("cpu_l2_writebacks", 65408);
          ("gpu_cache_hits", 0); ("gpu_cache_misses", 0);
          ("gpu_cache_writebacks", 0); ("cpu_tlb_hits", 10884779);
          ("cpu_tlb_misses", 1621); ("gpu_tlb_hits", 0);
          ("gpu_tlb_misses", 0); ("bus_bytes", 18669824);
          ("bus_requests", 145858); ("minor_faults", 1621);
          ("frames_allocated", 1624)
        ],
        "494b618b0bd1f52a735ad927db013e60" ) );
  ]

let check_one (k : Kernel.t) split () =
  let side = side_name split in
  let fields, digest = measure k split in
  match List.assoc_opt (k.abbrev, side) golden with
  | None ->
    (* no recorded row: print one to paste into [golden] *)
    Printf.printf "    ( (%S, %S),\n      ( [ %s ],\n        %S ) );\n"
      k.abbrev side
      (String.concat "; "
         (List.map (fun (n, v) -> Printf.sprintf "(%S, %d)" n v) fields))
      digest;
    Alcotest.fail "no golden row"
  | Some (want, want_digest) ->
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name fields with
        | Some got -> Alcotest.(check int) name v got
        | None -> Alcotest.failf "field %s not measured" name)
      want;
    Alcotest.(check int) "field count" (List.length want) (List.length fields);
    Alcotest.(check string) "page-table entries" want_digest digest

let () =
  Alcotest.run "golden"
    [
      ( "fig7",
        List.concat_map
          (fun (k : Kernel.t) ->
            List.map
              (fun split ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s" k.abbrev (side_name split))
                  `Slow (check_one k split))
              [ Harness.All_gpu; Harness.All_cpu ])
          Registry.all );
    ]
