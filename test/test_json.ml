(* The JSON printer: what [Json.to_string] writes, [Json_parse.parse]
   reads back as the same value, and numbers follow the one rule (an
   integral value below 2^53 is an integer, any other finite float the
   shortest round-tripping of %.15g/%.17g, a non-finite one null). *)

let check_string = Alcotest.(check string)

let test_numbers () =
  let show f = Json.to_string (Json.Number f) in
  check_string "integer" "42" (show 42.0);
  check_string "negative integer" "-7" (show (-7.0));
  check_string "negative zero" "0" (show (-0.0));
  check_string "1e15 is an integer" "1000000000000000" (show 1e15);
  check_string "a nanosecond clock after 12 days" "1500000000000123"
    (show 1500000000000123.0);
  check_string "largest integer form" "9007199254740991"
    (show 9007199254740991.0);
  check_string "1e16 is a float" "1e+16" (show 1e16);
  check_string "short fraction" "0.1" (show 0.1);
  check_string "fraction needing 17 digits" "0.33333333333333331"
    (show (1.0 /. 3.0));
  check_string "nan" "null" (show Float.nan);
  check_string "infinity" "null" (show Float.infinity);
  check_string "negative infinity" "null" (show Float.neg_infinity)

let test_layout () =
  check_string "compact, one line, keys in order"
    {|{"a":[1,true,null],"b":{"c":"d\"\\\n\u0001é"},"e":[]}|}
    (Json.to_string
       (Json.Object
          [ ("a", Json.Array [ Json.int 1; Json.Bool true; Json.Null ])
          ; ("b", Json.Object [ ("c", Json.String "d\"\\\n\001\xc3\xa9") ])
          ; ("e", Json.Array [])
          ]))

let test_items () =
  let item n = Json.strings [ n ] in
  let streamed fields items =
    let b = Buffer.create 16 in
    Json.add_object_with_items b fields ~key:"k"
      (fun b n -> Json.to_buffer b (item n))
      items;
    Buffer.contents b
  in
  List.iter
    (fun (fields, items) ->
       check_string "as the built object"
         (Json.to_string
            (Json.Object (fields @ [ ("k", Json.Array (List.map item items)) ])))
         (streamed fields items))
    [ ([], [])
    ; ([], [ "a" ])
    ; ([ ("x", Json.int 1); ("y", Json.Null) ], [ "a"; "b\"" ])
    ]

(* {1 Round trip} *)

let gen_string =
  let open QCheck2.Gen in
  let ascii = map Char.chr (int_range 0 0x7f) in
  let utf8 =
    map
      (fun code ->
         let u =
           Uchar.of_int (if code >= 0xd800 && code <= 0xdfff then 0xfffd else code)
         in
         let b = Buffer.create 4 in
         Buffer.add_utf_8_uchar b u;
         Buffer.contents b)
      (int_range 0x80 0x10ffff)
  in
  let piece =
    frequency
      [ (6, map (String.make 1) ascii)
      ; (2, utf8)
      ; (1, return "\"")
      ; (1, return "\\")
      ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

let gen_number =
  let open QCheck2.Gen in
  oneof
    [ map Float.of_int (int_range (-(1 lsl 53) + 1) ((1 lsl 53) - 1))
    ; map
        (fun bits ->
           let f = Int64.float_of_bits bits in
           if Float.is_finite f then f else 0.5)
        ui64
    ; float_range (-1e6) 1e6
    ]

let gen_json =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self size ->
    let leaf =
      oneof
        [ return Json.Null
        ; map (fun b -> Json.Bool b) bool
        ; map (fun f -> Json.Number f) gen_number
        ; map (fun s -> Json.String s) gen_string
        ]
    in
    if size <= 1 then leaf
    else
      let child = self (size / 4) in
      frequency
        [ (2, leaf)
        ; (1, map (fun l -> Json.Array l) (list_size (int_range 0 4) child))
        ; ( 1
          , map
              (fun l -> Json.Object l)
              (list_size (int_range 0 4) (pair gen_string child)) )
        ])

let roundtrip =
  QCheck2.Test.make ~count:2000 ~name:"parse (to_string v) = Ok v"
    ~print:Json.to_string gen_json (fun v ->
      Json_parse.parse (Json.to_string v) = Ok v)

let () =
  Alcotest.run "json"
    [ ( "printer"
      , [ Alcotest.test_case "number rule" `Quick test_numbers
        ; Alcotest.test_case "layout and escaping" `Quick test_layout
        ; Alcotest.test_case "items printed one at a time" `Quick test_items
        ; QCheck_alcotest.to_alcotest roundtrip
        ] )
    ]
